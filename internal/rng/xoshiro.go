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
// afford a call per draw (walk's fused cover loop) hoist the words
// into locals, replicate the xoshiro256** update inline, and write the
// words back when the burst ends; the update they replicate is pinned
// against this generator by TestStateInlineUpdateMatches. The pointer
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

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls
// to Uint64. It can be used to generate 2^128 non-overlapping
// subsequences for parallel trials.
func (x *Xoshiro256) Jump() {
	jump := [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				s0 ^= x.s[0]
				s1 ^= x.s[1]
				s2 ^= x.s[2]
				s3 ^= x.s[3]
			}
			x.Uint64()
		}
	}
	x.s[0], x.s[1], x.s[2], x.s[3] = s0, s1, s2, s3
}
