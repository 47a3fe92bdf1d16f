package gen

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// assertSameCSR checks that g, as a generator returned it, is the graph
// NewFromEdges would build from its edge list: same edges, CSR halves
// and offsets, adjacency and degrees.
func assertSameCSR(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := graph.MustFromEdges(g.N(), g.Edges())
	if !slices.Equal(g.Edges(), want.Edges()) {
		t.Fatalf("%s: edge lists differ", name)
	}
	if !slices.Equal(g.Halves(), want.Halves()) {
		t.Fatalf("%s: CSR halves differ from NewFromEdges", name)
	}
	if !slices.Equal(g.Offsets(), want.Offsets()) {
		t.Fatalf("%s: CSR offsets differ from NewFromEdges", name)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != want.Degree(v) || !slices.Equal(g.Adj(v), want.Adj(v)) {
			t.Fatalf("%s: vertex %d adjacency differs", name, v)
		}
	}
}

// Both Steger–Wormald generators write the CSR themselves; it must be
// exactly the one the edge-list builder gives, over seeds and sizes,
// dense rows whose attempts restart, and mixed degree sequences.
func TestSWFrozenCSRMatchesEdgeListBuild(t *testing.T) {
	for _, tc := range []struct{ n, r int }{{10, 4}, {12, 10}, {14, 12}, {200, 4}, {301, 6}, {1000, 3}, {64, 40}} {
		for seed := int64(1); seed <= 4; seed++ {
			g, err := RandomRegularSW(newRand(seed), tc.n, tc.r)
			if err != nil {
				t.Fatalf("n=%d r=%d seed %d: %v", tc.n, tc.r, seed, err)
			}
			assertSameCSR(t, fmt.Sprintf("regular n=%d r=%d seed %d", tc.n, tc.r, seed), g)
		}
	}
	seqs := map[string][]int{
		"4/6/8":     cycleDegrees(120, 4, 6, 8),
		"2/4":       cycleDegrees(90, 2, 4),
		"1/3 odd":   cycleDegrees(40, 1, 3),
		"dense":     cycleDegrees(16, 14, 12, 10),
		"hub+cycle": append([]int{8}, cycleDegrees(40, 2)...),
	}
	for name, degrees := range seqs {
		for seed := int64(1); seed <= 4; seed++ {
			g, err := RandomDegreeSequenceSW(newRand(seed), degrees)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for v, d := range degrees {
				if g.Degree(v) != d {
					t.Fatalf("%s seed %d: degree(%d) = %d, want %d", name, seed, v, g.Degree(v), d)
				}
			}
			assertSameCSR(t, fmt.Sprintf("%s seed %d", name, seed), g)
		}
	}
}

// cycleDegrees gives n vertices the degrees degs in turn.
func cycleDegrees(n int, degs ...int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = degs[i%len(degs)]
	}
	return out
}

// A degree-0 vertex can never be connected to the rest, so both
// connected degree-sequence generators reject it up front, naming it,
// instead of exhausting their attempts.
func TestDegreeSequenceRejectsIsolatedVertex(t *testing.T) {
	degrees := []int{2, 2, 0, 2, 2, 2}
	for name, build := range map[string]func(*rand.Rand, []int) (*graph.Graph, error){
		"RandomDegreeSequenceSW": RandomDegreeSequenceSW,
		"RandomDegreeSequence":   RandomDegreeSequence,
	} {
		_, err := build(newRand(1), degrees)
		if !errors.Is(err, ErrDegreeSequence) || !strings.Contains(err.Error(), "vertex 2") {
			t.Errorf("%s with a degree-0 vertex: %v, want ErrDegreeSequence naming vertex 2", name, err)
		}
	}
	// A single vertex with degree 0 is the one-vertex graph: connected.
	for name, build := range map[string]func(*rand.Rand, []int) (*graph.Graph, error){
		"RandomDegreeSequenceSW": RandomDegreeSequenceSW,
		"RandomDegreeSequence":   RandomDegreeSequence,
	} {
		if g, err := build(newRand(1), []int{0}); err != nil || g.N() != 1 || g.M() != 0 {
			t.Errorf("%s([0]) = %v, %v; want the one-vertex graph", name, g, err)
		}
	}
}
