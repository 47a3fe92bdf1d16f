package rng

import (
	"math/bits"
	"math/rand"
)

// Source is a concrete generator usable both through math/rand (it is a
// rand.Source64) and directly on simulation hot paths via the
// nearly-divisionless bounded draws below. All generators in this
// package implement it.
type Source interface {
	rand.Source64
	// Uint64n returns a uniform value in [0, n). n must be positive.
	Uint64n(n uint64) uint64
	// Intn returns a uniform value in [0, n). n must be positive.
	Intn(n int) int
}

var (
	_ Source = (*Xoshiro256)(nil)
	_ Source = (*SplitMix64)(nil)
	_ Source = (*MT19937)(nil)
)

// uint64n maps one 64-bit draw into [0, n) by Lemire's nearly-
// divisionless multiply-shift method ("Fast Random Integer Generation
// in an Interval", TOMACS 2019). The expensive %n fallback only runs
// when the first draw lands in the biased low fringe, which happens
// with probability n/2^64 — essentially never for simulation-sized n —
// so the common case is one multiplication, versus the one-or-more
// divisions of math/rand.(*Rand).Intn.
func uint64n[S Source](src S, n uint64) uint64 {
	hi, lo := bits.Mul64(src.Uint64(), n)
	if lo < n {
		thresh := -n % n // (2^64 - n) mod n, without 128-bit arithmetic
		for lo < thresh {
			hi, lo = bits.Mul64(src.Uint64(), n)
		}
	}
	return hi
}

func intn[S Source](src S, n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	return int(uint64n(src, uint64(n)))
}

// Uint64n returns a uniform value in [0, n) via the fast bounded path.
//
// Xoshiro256's bounded draws are monomorphized by hand rather than
// routed through the generic uint64n: the generic instantiates by
// gcshape and calls Uint64 through a dictionary, which blocks inlining
// on the one generator every simulation hot loop uses. The concrete
// body below inlines into devirtualized callers, and is draw-for-draw
// identical to the generic path. (walk's fused cover loop goes one step
// further: it hoists the state words into locals and writes this same
// update and reduction out inline; see Xoshiro256.State.)
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	// The xoshiro update is fused in rather than calling Uint64: the
	// generator's cost sits just above the compiler's inlining budget,
	// and a simulation draws bounded ints hundreds of millions of times
	// per sweep, so the whole common path — one state update, one
	// multiply — runs in this single frame with no further calls.
	s := &x.s
	r := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	hi, lo := bits.Mul64(r, n)
	if lo < n {
		// Biased low fringe, probability n/2^64: kept out of line.
		return x.uint64nFringe(n, hi, lo)
	}
	return hi
}

//go:noinline
func (x *Xoshiro256) uint64nFringe(n, hi, lo uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(x.Uint64(), n)
	}
	return hi
}

// Intn returns a uniform value in [0, n) via the fast bounded path.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	return int(x.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) via the fast bounded path.
func (s *SplitMix64) Uint64n(n uint64) uint64 { return uint64n(s, n) }

// Intn returns a uniform value in [0, n) via the fast bounded path.
func (s *SplitMix64) Intn(n int) int { return intn(s, n) }

// Uint64n returns a uniform value in [0, n) via the fast bounded path.
func (m *MT19937) Uint64n(n uint64) uint64 { return uint64n(m, n) }

// Intn returns a uniform value in [0, n) via the fast bounded path.
func (m *MT19937) Intn(n int) int { return intn(m, n) }

// Rand couples a concrete fast generator with a math/rand wrapper over
// the same state. The embedded *rand.Rand serves every distribution
// math/rand offers (Float64, Perm, NormFloat64, ...), while Intn is
// overridden to take the generator's nearly-divisionless path, so walk
// hot loops draw bounded ints without interface dispatch into
// math/rand or its modulo-rejection divisions. Both views consume the
// single underlying state, so a seeded *Rand remains one deterministic
// stream regardless of which view each call uses.
type Rand struct {
	*rand.Rand
	src Source
}

// NewRand wraps src in a Rand.
func NewRand(src Source) *Rand {
	return &Rand{Rand: rand.New(src), src: src}
}

// Intn returns a uniform value in [0, n) using the fast bounded path of
// the underlying generator. Note this consumes raw 64-bit outputs in a
// different pattern than math/rand.(*Rand).Intn, so switching a seeded
// run between the two changes its trajectory (see the golden tests in
// internal/walk).
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Uint64n returns a uniform value in [0, n) using the fast bounded path.
func (r *Rand) Uint64n(n uint64) uint64 { return r.src.Uint64n(n) }

// Source returns the concrete generator backing r.
func (r *Rand) Source() Source { return r.src }
