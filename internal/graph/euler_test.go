package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEulerCircuitCycle(t *testing.T) {
	g := cycle(t, 7)
	trail, err := g.EulerCircuit(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyCircuit(0, trail); err != nil {
		t.Fatal(err)
	}
}

func TestEulerCircuitEvenComplete(t *testing.T) {
	// K5 is 4-regular: Eulerian.
	g := complete(t, 5)
	trail, err := g.EulerCircuit(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyCircuit(2, trail); err != nil {
		t.Fatal(err)
	}
}

func TestEulerCircuitMultigraphWithLoops(t *testing.T) {
	// The loop {1,1} keeps degrees even.
	g := MustFromEdges(3, []Edge{{0, 1}, {1, 0}, {1, 1}, {0, 2}, {2, 0}})
	trail, err := g.EulerCircuit(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyCircuit(0, trail); err != nil {
		t.Fatal(err)
	}
}

func TestEulerCircuitRejectsOddDegree(t *testing.T) {
	g := path(t, 4)
	if _, err := g.EulerCircuit(0); err != ErrNotEulerian {
		t.Fatalf("err = %v, want ErrNotEulerian", err)
	}
	k4 := complete(t, 4)
	if _, err := k4.EulerCircuit(0); err != ErrNotEulerian {
		t.Fatal("K4 (3-regular) should be rejected")
	}
}

func TestEulerCircuitRejectsDisconnectedEdges(t *testing.T) {
	g := MustFromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	if _, err := g.EulerCircuit(0); err != ErrNotEulerian {
		t.Fatal("two triangles should be rejected")
	}
}

func TestEulerCircuitIsolatedStartRejected(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 0}})
	if _, err := g.EulerCircuit(3); err != ErrNotEulerian {
		t.Fatal("edgeless start vertex should be rejected")
	}
}

func TestEulerCircuitEmptyGraph(t *testing.T) {
	g := MustFromEdges(3, nil)
	trail, err := g.EulerCircuit(0)
	if err != nil || trail != nil {
		t.Fatal("empty graph should give empty circuit")
	}
}

func TestVerifyCircuitRejectsBadTrails(t *testing.T) {
	g := cycle(t, 4)
	if err := g.VerifyCircuit(0, []int{0, 1, 2}); err == nil {
		t.Error("short trail accepted")
	}
	if err := g.VerifyCircuit(0, []int{0, 0, 1, 2}); err == nil {
		t.Error("repeated edge accepted")
	}
	if err := g.VerifyCircuit(0, []int{0, 2, 1, 3}); err == nil {
		t.Error("non-walk accepted")
	}
}

func TestEulerCircuitPropertyRandomEvenGraphs(t *testing.T) {
	// Random even-degree multigraphs built as unions of random closed
	// walks are always Eulerian when connected.
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(20) + 3
		// Union of 1-3 random cycles through random vertex sequences.
		var edges []Edge
		for c := 0; c < r.Intn(3)+1; c++ {
			start := r.Intn(n)
			cur := start
			length := r.Intn(10) + 2
			for i := 0; i < length; i++ {
				nxt := r.Intn(n)
				edges = append(edges, Edge{cur, nxt})
				cur = nxt
			}
			edges = append(edges, Edge{cur, start})
		}
		g := MustFromEdges(n, edges)
		if !g.IsEvenDegree() {
			return false // construction bug
		}
		label, _ := g.Components()
		comp := label[g.Edge(0).U]
		for _, e := range g.Edges() {
			if label[e.U] != comp {
				return true // disconnected edges: EulerCircuit correctly refuses
			}
		}
		trail, err := g.EulerCircuit(g.Edge(0).U)
		if err != nil {
			return false
		}
		return g.VerifyCircuit(g.Edge(0).U, trail) == nil
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}
