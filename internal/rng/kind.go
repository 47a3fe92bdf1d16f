package rng

import (
	"fmt"
	"math/rand"
)

// Kind selects the generator family New and NewSource build.
type Kind int

// Generator families.
const (
	KindXoshiro Kind = iota + 1
	KindMT19937
	KindSplitMix
)

// kindNames spells each Kind as the command-line flags and the HTTP API
// accept it; the empty name selects the default.
var kindNames = map[string]Kind{
	"":         KindXoshiro,
	"xoshiro":  KindXoshiro,
	"mt19937":  KindMT19937,
	"splitmix": KindSplitMix,
}

// ParseKind maps a generator family name ("xoshiro", "mt19937" for the
// paper's Mersenne Twister, or "splitmix"; "" means xoshiro) onto its
// Kind, rejecting unknown names.
func ParseKind(name string) (Kind, error) {
	k, ok := kindNames[name]
	if !ok {
		return 0, fmt.Errorf("unknown RNG kind %q (want xoshiro, mt19937 or splitmix)", name)
	}
	return k, nil
}

// NewSource returns a concrete generator of the given kind seeded
// directly with seed. Callers that derive their own seeds (e.g. the
// simulation harness's deriveSeed) use this to build a generator per
// derived seed; Kind zero values fall back to xoshiro256**.
func NewSource(kind Kind, seed uint64) Source {
	switch kind {
	case KindMT19937:
		// MT19937's plain seeding is 32-bit; inject both words through
		// init_by_array so distinct 64-bit derived seeds yield distinct
		// key material rather than folding (and possibly colliding) in
		// a 32-bit space.
		m := NewMT19937(0)
		m.SeedBySlice([]uint32{uint32(seed), uint32(seed >> 32)})
		return m
	case KindSplitMix:
		return NewSplitMix64(seed)
	default:
		return NewXoshiro256(seed)
	}
}

// New returns a generator of the given kind for the master seed seed:
// the NewSource generator seeded with the first output of a SplitMix64
// seeded with seed, so nearby master seeds give unrelated generators.
func New(kind Kind, seed uint64) rand.Source64 {
	return NewSource(kind, NewSplitMix64(seed).Uint64())
}
