// Package bits provides the word-packed bitset backing the walk
// engine's visited sets.
//
// The E-process (and its relatives) consult a visited set on every
// step, so its footprint is hot-state memory traffic: as a []bool it
// costs one byte per edge, as a Set one bit. At Theorem 1 scale
// (cover times ≈ m, every step touching the set) the 8× densification
// keeps the set resident in cache long after the []bool version has
// outgrown it, and whole-set scans (UnvisitedEdgeIDs, popcounts)
// proceed a 64-bit word at a time instead of a byte at a time.
package bits

import mathbits "math/bits"

// Set is a fixed-length bitset over [0, Len()). The zero value is an
// empty set of length 0; size it with Reset. Methods that take an index
// do not bounds-check beyond the underlying word-slice access: callers
// own the [0, Len()) contract. Note this is laxer than a []bool — an
// index in the final word's padding, [Len(), 64·⌈Len()/64⌉), is not
// caught.
type Set struct {
	words []uint64
	n     int
}

// Reset makes s a zeroed length-n set, reusing the word storage when
// its capacity suffices — the walk package's standard pattern for
// keeping Reset allocation-free once warmed up.
func (s *Set) Reset(n int) {
	w := (n + 63) >> 6
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		clear(s.words)
	}
	s.n = n
}

// Len returns the set's length (the exclusive upper bound on indices).
func (s *Set) Len() int { return s.n }

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.words[uint(i)>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.words[uint(i)>>6] &^= 1 << (uint(i) & 63)
}

// Count returns the number of set bits, one popcount per word.
func (s *Set) Count() int {
	total := 0
	for _, w := range s.words {
		total += mathbits.OnesCount64(w)
	}
	return total
}

// AppendUnset appends the indices of all clear bits in [0, Len()) to
// dst, in increasing order. It visits each word once, so a mostly-set
// set (the tail of a cover run) costs one load and one compare per 64
// entries.
func (s *Set) AppendUnset(dst []int) []int {
	for wi, w := range s.words {
		w = ^w
		if wi == len(s.words)-1 {
			if tail := uint(s.n) & 63; tail != 0 {
				w &= 1<<tail - 1 // mask the bits past Len()
			}
		}
		base := wi << 6
		for w != 0 {
			dst = append(dst, base+mathbits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}
