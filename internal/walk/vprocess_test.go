package walk

import (
	"testing"

	"repro/internal/graph"
)

func TestVProcessCovers(t *testing.T) {
	g := mustRegular(t, newRand(40), 200, 4)
	v := NewVProcess(g, newRand(41), 0)
	steps, err := VertexCoverSteps(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	if steps < int64(g.N()-1) {
		t.Errorf("impossible cover in %d steps", steps)
	}
}

func TestVProcessPrefersUnvisited(t *testing.T) {
	// On a star-free path the VProcess must walk straight: at each new
	// vertex exactly one neighbour is unvisited, so the first n-1 steps
	// cover the path deterministically when started at an end.
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5},
	})
	v := NewVProcess(g, newRand(42), 0)
	steps, err := VertexCoverSteps(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 5 {
		t.Errorf("path cover = %d steps, want exactly 5 (greedy straight walk)", steps)
	}
}

func TestVProcessVisitedTracking(t *testing.T) {
	g := mustCycle(t, 8)
	v := NewVProcess(g, newRand(43), 3)
	if !v.visited.Test(3) {
		t.Error("start vertex should be visited")
	}
	if v.visited.Test(0) {
		t.Error("vertex 0 not yet visited")
	}
	v.Step()
	count := 0
	for u := 0; u < g.N(); u++ {
		if v.visited.Test(u) {
			count++
		}
	}
	if count != 2 {
		t.Errorf("after one step %d vertices visited, want 2", count)
	}
	v.Reset(0)
	if v.visited.Test(3) {
		t.Error("reset did not clear visited set")
	}
	if v.Current() != 0 {
		t.Error("reset did not move start")
	}
}

func TestVProcessFasterThanSRWOnExpander(t *testing.T) {
	g := mustRegular(t, newRand(44), 300, 4)
	vp := NewVProcess(g, newRand(45), 0)
	srw := NewSimple(g, newRand(45), 0)
	sV, err := VertexCoverSteps(vp, 0)
	if err != nil {
		t.Fatal(err)
	}
	sS, err := VertexCoverSteps(srw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sV >= sS {
		t.Errorf("VProcess (%d) not faster than SRW (%d) on an expander", sV, sS)
	}
}

func TestVProcessNoParityStructure(t *testing.T) {
	// Sanity: the VProcess freely walks on odd-degree graphs too and
	// still covers (it has no even-degree hypothesis).
	g := mustRegular(t, newRand(46), 100, 3)
	v := NewVProcess(g, newRand(47), 0)
	if _, err := VertexCoverSteps(v, 0); err != nil {
		t.Fatal(err)
	}
}
