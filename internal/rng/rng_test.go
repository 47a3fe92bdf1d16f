package rng

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// Reference outputs for MT19937 seeded with init_genrand(5489), the
// generator's canonical default seed. First ten outputs from the
// reference C implementation (mt19937ar.c).
var mtRefSeed5489 = []uint32{
	3499211612, 581869302, 3890346734, 3586334585, 545404204,
	4161255391, 3922919429, 949333985, 2715962298, 1323567403,
}

func TestMT19937ReferenceVector(t *testing.T) {
	m := NewMT19937(5489)
	for i, want := range mtRefSeed5489 {
		if got := m.Uint32(); got != want {
			t.Fatalf("output %d: got %d, want %d", i, got, want)
		}
	}
}

// Reference outputs for init_by_array({0x123, 0x234, 0x345, 0x456}),
// the test vector published with mt19937ar.c.
var mtRefArraySeed = []uint32{
	1067595299, 955945823, 477289528, 4107218783, 4228976476,
	3344332714, 3355579695, 227628506, 810200273, 2591290167,
}

func TestMT19937SeedBySliceReferenceVector(t *testing.T) {
	m := NewMT19937(0)
	m.SeedBySlice([]uint32{0x123, 0x234, 0x345, 0x456})
	for i, want := range mtRefArraySeed {
		if got := m.Uint32(); got != want {
			t.Fatalf("output %d: got %d, want %d", i, got, want)
		}
	}
}

func TestMT19937Float64Range(t *testing.T) {
	m := NewMT19937(12345)
	for i := 0; i < 10000; i++ {
		f := m.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestMT19937SeedDeterminism(t *testing.T) {
	a := NewMT19937(42)
	b := NewMT19937(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at output %d", i)
		}
	}
	a.Seed(7)
	b.Seed(7)
	if a.Uint32() != b.Uint32() {
		t.Fatal("reseed did not restore determinism")
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs for seed 0 from the public-domain C version.
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
		0xf88bb8a8724c81ec, 0x1b39896a51a8749b,
	}
	s := NewSplitMix64(0)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("output %d: got %#x, want %#x", i, got, w)
		}
	}
}

func TestXoshiroNonZeroState(t *testing.T) {
	// Seeding with any value, including 0, must produce a usable state.
	x := NewXoshiro256(0)
	var orAll uint64
	for i := 0; i < 10; i++ {
		orAll |= x.Uint64()
	}
	if orAll == 0 {
		t.Fatal("xoshiro256** produced all-zero outputs")
	}
}

// New expands its master seed through SplitMix64, so adjacent master
// seeds give generators whose outputs do not collide.
func TestStreamIndependence(t *testing.T) {
	a := New(KindXoshiro, 1)
	b := New(KindXoshiro, 2)
	collisions := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			collisions++
		}
	}
	if collisions > 1 {
		t.Fatalf("generators from adjacent master seeds collide on %d/1000 outputs", collisions)
	}
}

// New is deterministic in its seed and is exactly NewSource seeded with
// the master seed's first SplitMix64 output.
func TestStreamDeterminism(t *testing.T) {
	for _, kind := range []Kind{KindXoshiro, KindMT19937, KindSplitMix} {
		a := New(kind, 5)
		b := New(kind, 5)
		c := NewSource(kind, NewSplitMix64(5).Uint64())
		for i := 0; i < 100; i++ {
			x := a.Uint64()
			if x != b.Uint64() {
				t.Fatalf("kind %d: generators from equal seeds diverge", kind)
			}
			if x != c.Uint64() {
				t.Fatalf("kind %d: New differs from NewSource on the SplitMix64-expanded seed", kind)
			}
		}
	}
}

func TestSourcesSatisfyRand(t *testing.T) {
	// Each generator must be usable through *rand.Rand with sane Intn.
	sources := map[string]rand.Source64{
		"mt":       NewMT19937(1),
		"splitmix": NewSplitMix64(1),
		"xoshiro":  NewXoshiro256(1),
	}
	for name, src := range sources {
		r := rand.New(src)
		for i := 0; i < 1000; i++ {
			if v := r.Intn(10); v < 0 || v >= 10 {
				t.Fatalf("%s: Intn out of range: %d", name, v)
			}
		}
	}
}

func TestInt63NonNegative(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		x := NewXoshiro256(seed)
		m := NewMT19937(uint32(seed))
		s := NewSplitMix64(seed)
		for i := 0; i < 20; i++ {
			if x.Int63() < 0 || m.Int63() < 0 || s.Int63() < 0 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUniformityChiSquare(t *testing.T) {
	// Coarse 16-bucket chi-square on each generator; catastrophic bias
	// would blow far past the 99.9% critical value (~37.7 for 15 dof).
	for name, src := range map[string]rand.Source64{
		"mt":       NewMT19937(2024),
		"splitmix": NewSplitMix64(2024),
		"xoshiro":  NewXoshiro256(2024),
	} {
		const buckets, samples = 16, 160000
		var counts [buckets]int
		r := rand.New(src)
		for i := 0; i < samples; i++ {
			counts[r.Intn(buckets)]++
		}
		expected := float64(samples) / buckets
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		if chi2 > 60 {
			t.Errorf("%s: chi-square %v too high for uniform buckets", name, chi2)
		}
		if math.IsNaN(chi2) {
			t.Errorf("%s: chi-square NaN", name)
		}
	}
}

func BenchmarkMT19937Uint64(b *testing.B) {
	m := NewMT19937(1)
	for i := 0; i < b.N; i++ {
		_ = m.Uint64()
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	x := NewXoshiro256(1)
	for i := 0; i < b.N; i++ {
		_ = x.Uint64()
	}
}

func BenchmarkSplitMixUint64(b *testing.B) {
	s := NewSplitMix64(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

// Derived 64-bit seeds differing only in the high word must not
// collapse to the same MT19937 stream (the plain MT seed is 32-bit;
// NewSource must inject both words).
func TestNewSourceMTUsesAllSeedBits(t *testing.T) {
	lo := NewSource(KindMT19937, 0xdeadbeef)
	hi := NewSource(KindMT19937, 0xdeadbeef|1<<32)
	same := true
	for i := 0; i < 16; i++ {
		if lo.Uint64() != hi.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("high seed word ignored: identical MT19937 streams")
	}
}

// TestStateInlineUpdateMatches pins the published state layout: an
// engine that hoists the four words via State, replicates the
// xoshiro256** update inline, and writes back must produce the exact
// Uint64 stream. walk's fused cover loop does precisely this.
func TestStateInlineUpdateMatches(t *testing.T) {
	ref := NewXoshiro256(12345)
	x := NewXoshiro256(12345)
	st := x.State()
	s0, s1, s2, s3 := st[0], st[1], st[2], st[3]
	for i := 0; i < 1000; i++ {
		res := bits.RotateLeft64(s1*5, 7) * 9
		tt := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= tt
		s3 = bits.RotateLeft64(s3, 45)
		if want := ref.Uint64(); res != want {
			t.Fatalf("draw %d: inline update yields %#x, Uint64 yields %#x", i, res, want)
		}
	}
	st[0], st[1], st[2], st[3] = s0, s1, s2, s3
	if got, want := x.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("after write-back: Uint64 yields %#x, want %#x", got, want)
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"": KindXoshiro, "xoshiro": KindXoshiro, "mt19937": KindMT19937, "splitmix": KindSplitMix,
	} {
		if got, err := ParseKind(name); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"mt", "lcg", "Xoshiro"} {
		if _, err := ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) accepted an unknown name", name)
		}
	}
}
