package rng

import "math/bits"

// Xoshiro256 is Blackman and Vigna's xoshiro256** generator: fast,
// 256 bits of state, and equidistributed in 4 dimensions. It is the
// default generator for large parameter sweeps where MT19937's state
// size and speed would be a burden.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a xoshiro256** generator whose state is expanded
// from seed by SplitMix64, per the authors' recommendation.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	x := &Xoshiro256{}
	for i := range x.s {
		x.s[i] = sm.Uint64()
	}
	// An all-zero state is the one invalid configuration.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return x
}

// State exposes the generator's four state words. Hot loops that cannot
// afford a call per draw (walk's fused cover loops) hoist the words
// into locals, advance them with their own copy of the xoshiro256**
// update, and write the words back when the burst ends; the update is
// pinned against this generator by TestStateInlineUpdateMatches here
// and walk's TestFusedDrawMatchesUint64n. The pointer
// aliases live state: interleaving draws through it with draws through
// the methods is only coherent if every burst writes back first.
func (x *Xoshiro256) State() *[4]uint64 { return &x.s }

// Uint64 returns the next 64-bit output. The state is addressed through
// a hoisted array pointer: the same update, but the body prices under
// the compiler's inlining budget, which the bounded-draw hot paths
// (Uint64n's fringe loop) rely on.
func (x *Xoshiro256) Uint64() uint64 {
	s := &x.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Int63 implements math/rand.Source.
func (x *Xoshiro256) Int63() int64 {
	return int64(x.Uint64() >> 1)
}

// Seed implements math/rand.Source.
func (x *Xoshiro256) Seed(seed int64) {
	*x = *NewXoshiro256(uint64(seed))
}
