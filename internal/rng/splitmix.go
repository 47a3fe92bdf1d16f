package rng

// SplitMix64 is Steele, Lea and Flood's 64-bit SplitMix generator. It is
// used here primarily to expand a master seed into the seed of another
// generator (see New), and is itself a perfectly serviceable
// math/rand.Source64.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next 64-bit output.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements math/rand.Source.
func (s *SplitMix64) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Seed implements math/rand.Source.
func (s *SplitMix64) Seed(seed int64) {
	s.state = uint64(seed)
}
