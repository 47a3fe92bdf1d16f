package gen

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Every stochastic generator must be a pure function of its seed.
func TestGeneratorDeterminism(t *testing.T) {
	builders := map[string]func(seed int64) (*graph.Graph, error){
		"regular-pairing": func(s int64) (*graph.Graph, error) { return RandomRegular(newRand(s), 30, 4) },
		"regular-sw":      func(s int64) (*graph.Graph, error) { return RandomRegularSW(newRand(s), 50, 4) },
		"degree-seq": func(s int64) (*graph.Graph, error) {
			return RandomDegreeSequence(newRand(s), []int{4, 4, 4, 4, 6, 6, 4, 4})
		},
		"rgg": func(s int64) (*graph.Graph, error) { return RandomGeometric(newRand(s), 80, 0.2) },
		"rgg-connected": func(s int64) (*graph.Graph, error) {
			return RandomGeometricConnected(newRand(s), 60, 0)
		},
	}
	for name, build := range builders {
		a, err := build(42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := build(42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ae, be := a.Edges(), b.Edges()
		if len(ae) != len(be) {
			t.Fatalf("%s: edge counts differ for equal seeds", name)
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("%s: edge %d differs: %v vs %v", name, i, ae[i], be[i])
			}
		}
		// And different seeds give different graphs (overwhelmingly).
		c, err := build(43)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same := true
		ce := c.Edges()
		if len(ce) != len(ae) {
			same = false
		} else {
			for i := range ae {
				if ae[i] != ce[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: seeds 42 and 43 produced identical graphs", name)
		}
	}
}

// Deterministic families must be identical across calls with no seed.
func TestDeterministicFamiliesStable(t *testing.T) {
	builders := map[string]func() (*graph.Graph, error){
		"hypercube": func() (*graph.Graph, error) { return Hypercube(5) },
		"torus":     func() (*graph.Graph, error) { return Torus(5, 7) },
		"circulant": func() (*graph.Graph, error) { return Circulant(20, []int{1, 3}) },
		"margulis":  func() (*graph.Graph, error) { return Margulis(4) },
		"paley":     func() (*graph.Graph, error) { return Paley(13) },
		"lps":       func() (*graph.Graph, error) { return LPS(5, 13) },
		"lollipop":  func() (*graph.Graph, error) { return Lollipop(4, 3) },
	}
	for name, build := range builders {
		a, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ae, be := a.Edges(), b.Edges()
		if len(ae) != len(be) {
			t.Fatalf("%s: nondeterministic edge count", name)
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("%s: nondeterministic edge %d", name, i)
			}
		}
	}
}

// RandomRegularSW allocates per attempt, not per vertex: about 15
// allocations at n=200 and at n=4000 (seed 1 needs one attempt at both
// sizes), where per-vertex sets would add thousands. The slack of 2
// absorbs the runtime's own occasional mallocs.
func TestRandomRegularSWAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := RandomRegularSW(newRand(1), n, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := allocs(200), allocs(4000); big > small+2 {
		t.Errorf("allocations grow with n: %v at n=200, %v at n=4000", small, big)
	}
}

// BenchmarkRandomRegularSW generates one scale-2 fig1 cell (n=4000,
// r=4) per op, from a source built the way the sweep builds one: a
// xoshiro256** Source behind math/rand, which seeds in O(1) (math/rand's
// own source spends microseconds seeding its 607-word state).
func BenchmarkRandomRegularSW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rand.New(rng.NewSource(rng.KindXoshiro, uint64(i)))
		if _, err := RandomRegularSW(r, 4000, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomRegularPairing200(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RandomRegular(newRand(int64(i)), 200, 4); err != nil {
			b.Fatal(err)
		}
	}
}
