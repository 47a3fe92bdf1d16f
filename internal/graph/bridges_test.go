package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBridgesPath(t *testing.T) {
	g := path(t, 5)
	bridges := g.Bridges()
	if len(bridges) != 4 {
		t.Fatalf("path bridges = %v, want all 4 edges", bridges)
	}
}

func TestBridgesCycleHasNone(t *testing.T) {
	g := cycle(t, 7)
	if b := g.Bridges(); len(b) != 0 {
		t.Fatalf("cycle bridges = %v, want none", b)
	}
}

func TestBridgesParallelEdgesNotBridges(t *testing.T) {
	// A parallel pair {0,1}: neither is a bridge; the single edge {1,2}
	// is one.
	g := MustFromEdges(3, []Edge{{0, 1}, {0, 1}, {1, 2}})
	bridges := g.Bridges()
	if len(bridges) != 1 || bridges[0] != 2 {
		t.Fatalf("bridges = %v, want [2]", bridges)
	}
}

func TestBridgesLoopNeverBridge(t *testing.T) {
	g := MustFromEdges(2, []Edge{{0, 0}, {0, 1}})
	bridges := g.Bridges()
	if len(bridges) != 1 || bridges[0] != 1 {
		t.Fatalf("bridges = %v, want [1]", bridges)
	}
}

func TestBridgesBarbell(t *testing.T) {
	// Two triangles joined by one edge: exactly that edge is a bridge.
	g := MustFromEdges(6, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3},
		{U: 2, V: 3},
	})
	bridges := g.Bridges()
	if len(bridges) != 1 || bridges[0] != 6 {
		t.Fatalf("bridges = %v, want [6]", bridges)
	}
}

func TestBridgesDisconnected(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {2, 3}})
	bridges := g.Bridges()
	if len(bridges) != 2 {
		t.Fatalf("bridges = %v, want both isolated edges", bridges)
	}
}

// Property: removing a bridge increases the component count; removing
// a non-bridge does not.
func TestBridgesPropertyRemoval(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(14) + 3
		g := randomGraph(r, n, r.Intn(3*n)+1)
		isBridge := make(map[int]bool)
		for _, b := range g.Bridges() {
			isBridge[b] = true
		}
		_, baseComps := g.Components()
		for id := 0; id < g.M(); id++ {
			// Rebuild without edge id.
			edges := g.Edges()
			h := MustFromEdges(n, append(edges[:id], edges[id+1:]...))
			_, comps := h.Components()
			if isBridge[id] && comps != baseComps+1 {
				return false
			}
			if !isBridge[id] && comps != baseComps {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}
