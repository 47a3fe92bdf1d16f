package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestCountRootedSubgraphsPath(t *testing.T) {
	// Path 0-1-2-3: connected edge-induced subgraphs rooted at 0 with
	// s vertices are unique per s (the prefix path).
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	for s := 2; s <= 4; s++ {
		got, err := CountRootedSubgraphs(g, 0, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Errorf("s=%d: β = %d, want 1", s, got)
		}
	}
	one, err := CountRootedSubgraphs(g, 0, 1, 0)
	if err != nil || one != 1 {
		t.Errorf("s=1: β = %d, %v", one, err)
	}
}

func TestCountRootedSubgraphsTriangle(t *testing.T) {
	// Triangle rooted at 0:
	//   s=2: edge {0,1} or {0,2}                       → 2
	//   s=3: edge sets {01,12}, {02,12}, {01,02},
	//        {01,02,12}, {01,12,02}… exactly the 4 edge subsets of
	//        size ≥2 spanning all 3 vertices: {01,12},{02,12},{01,02},
	//        {01,02,12}                                 → 4
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	got2, err := CountRootedSubgraphs(g, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != 2 {
		t.Errorf("s=2: β = %d, want 2", got2)
	}
	got3, err := CountRootedSubgraphs(g, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got3 != 4 {
		t.Errorf("s=3: β = %d, want 4", got3)
	}
}

func TestCountRootedSubgraphsStar(t *testing.T) {
	// Star center 0 with 3 leaves: rooted at 0 with s=2: 3 single
	// edges; s=3: C(3,2)=3 pairs; s=4: 1 (all three edges).
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	want := map[int]int{2: 3, 3: 3, 4: 1}
	for s, w := range want {
		got, err := CountRootedSubgraphs(g, 0, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("s=%d: β = %d, want %d", s, got, w)
		}
	}
	// Rooted at a leaf with s=2: only its own edge.
	got, err := CountRootedSubgraphs(g, 1, 2, 0)
	if err != nil || got != 1 {
		t.Errorf("leaf s=2: β = %d, %v", got, err)
	}
}

func TestLemma14BoundHolds(t *testing.T) {
	g, err := gen.RandomRegularSW(newRand(80), 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{2, 3, 4, 5} {
		beta, err := CountRootedSubgraphs(g, 0, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bound := Lemma14Bound(s, g.MaxDegree()); float64(beta) > bound {
			t.Errorf("s=%d: β = %d exceeds 2^{sΔ} = %v", s, beta, bound)
		}
		if beta == 0 && s <= 5 {
			t.Errorf("s=%d: no subgraphs found on a connected graph", s)
		}
	}
	if Lemma14Bound(2000, 4) != Lemma14Bound(3000, 4) { // both +Inf
		t.Error("large exponents should saturate at +Inf")
	}
}

func TestCountRootedSubgraphsErrorsAndCap(t *testing.T) {
	g, err := gen.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CountRootedSubgraphs(g, 0, 0, 0); err == nil {
		t.Error("s=0 should fail")
	}
	if _, err := CountRootedSubgraphs(g, 0, 6, 10); err == nil {
		t.Error("cap should trip on K8")
	}
}

func TestLeafPathsThroughRootCycle(t *testing.T) {
	// C8, ℓ=2 from vertex 0: leaves {2, 6}; exactly one path through 0.
	g, err := gen.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := LeafPathsThroughRoot(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(paths))
	}
	p := paths[0]
	if len(p) != 5 {
		t.Fatalf("path %v should have 5 vertices (2ℓ+1)", p)
	}
	if p[2] != 0 {
		t.Errorf("path %v does not pass through the root at its centre", p)
	}
}

func TestLeafPathsBoundedByLemma17(t *testing.T) {
	g, err := gen.RandomRegularSW(newRand(81), 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	ell := 3
	paths, err := LeafPathsThroughRoot(g, 0, ell)
	if err != nil {
		t.Fatal(err)
	}
	if bound := math.Pow(float64(g.MaxDegree()), float64(2*ell)); float64(len(paths)) > bound {
		t.Errorf("|Q_v| = %d exceeds Δ^{2ℓ} = %v", len(paths), bound)
	}
	if len(paths) == 0 {
		t.Error("expander should have leaf-to-leaf paths")
	}
	// All paths have odd length 2ℓ+1 vertices and centre the root.
	for _, p := range paths {
		if len(p) != 2*ell+1 {
			t.Errorf("path length %d, want %d", len(p), 2*ell+1)
		}
		if p[ell] != 0 {
			t.Errorf("root not at centre of %v", p)
		}
	}
}

func TestLeafPathsErrors(t *testing.T) {
	g, err := gen.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LeafPathsThroughRoot(g, 0, 0); err == nil {
		t.Error("ℓ=0 should fail")
	}
}
