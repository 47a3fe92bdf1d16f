package graph

import (
	"errors"
	"slices"
	"testing"
)

func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	// 4 vertices: parallel edges 0-1, a loop at 2, a path 1-2-3.
	g := MustFromEdges(4, []Edge{{0, 1}, {0, 1}, {2, 2}, {1, 2}, {2, 3}})
	return g
}

// The constructor must lay every adjacency list out in edge-ID order,
// each loop's two halves side by side, with degrees to match.
func TestFreezePreservesAdjacency(t *testing.T) {
	g := buildTestGraph(t)
	want := [][]Half{
		{{ID: 0, To: 1}, {ID: 1, To: 1}},
		{{ID: 0, To: 0}, {ID: 1, To: 0}, {ID: 3, To: 2}},
		{{ID: 2, To: 2}, {ID: 2, To: 2}, {ID: 3, To: 1}, {ID: 4, To: 3}},
		{{ID: 4, To: 2}},
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	for v, adj := range want {
		if g.Degree(v) != len(adj) {
			t.Errorf("vertex %d: degree %d, want %d", v, g.Degree(v), len(adj))
		}
		if !slices.Equal(g.Adj(v), adj) {
			t.Errorf("vertex %d: adjacency %+v, want %+v", v, g.Adj(v), adj)
		}
	}
}

// The CSR views must agree with Adj and stay consistent with offsets.
func TestHalvesOffsetsViews(t *testing.T) {
	g := buildTestGraph(t)
	halves, off := g.Halves(), g.Offsets()
	if len(off) != g.N()+1 {
		t.Fatalf("offsets length %d, want %d", len(off), g.N()+1)
	}
	if int(off[g.N()]) != len(halves) || len(halves) != 2*g.M() {
		t.Fatalf("CSR sizes inconsistent: %d halves, last offset %d, m=%d", len(halves), off[g.N()], g.M())
	}
	for v := 0; v < g.N(); v++ {
		block := halves[off[v]:off[v+1]]
		adj := g.Adj(v)
		if len(block) != len(adj) {
			t.Fatalf("vertex %d: CSR block length %d vs Adj %d", v, len(block), len(adj))
		}
		for i := range block {
			if block[i] != adj[i] {
				t.Errorf("vertex %d: CSR block and Adj diverge at %d", v, i)
			}
		}
	}
}

// Isolated vertices must yield empty, well-formed CSR blocks.
func TestFreezeIsolatedVertices(t *testing.T) {
	g := MustFromEdges(3, []Edge{{1, 1}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := g.Degree(0); d != 0 {
		t.Errorf("deg(0) = %d, want 0", d)
	}
	if adj := g.Adj(2); len(adj) != 0 {
		t.Errorf("Adj(2) = %v, want empty", adj)
	}
	if d := g.Degree(1); d != 2 {
		t.Errorf("loop degree = %d, want 2", d)
	}
}

// NewFrozen adopts a well-formed CSR as is, and rejects each kind of
// malformed layout with ErrMalformedCSR.
func TestNewFrozenValidates(t *testing.T) {
	// Path 0-1-2 plus a loop at 2: edges 0={0,1}, 1={1,2}, 2={2,2}.
	edges := func() []Edge { return []Edge{{0, 1}, {1, 2}, {2, 2}} }
	off := func() []int32 { return []int32{0, 1, 3, 6} }
	halves := func() []Half {
		return []Half{
			{ID: 0, To: 1},
			{ID: 0, To: 0}, {ID: 1, To: 2},
			{ID: 1, To: 1}, {ID: 2, To: 2}, {ID: 2, To: 2},
		}
	}
	g, err := NewFrozen(3, edges(), off(), halves())
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(2) != 3 || g.M() != 3 {
		t.Fatalf("NewFrozen built deg(2)=%d m=%d", g.Degree(2), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := MustFromEdges(3, edges())
	for v := 0; v < 3; v++ {
		got, exp := g.Adj(v), want.Adj(v)
		if len(got) != len(exp) {
			t.Fatalf("vertex %d: %v, want %v", v, got, exp)
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("vertex %d: %v, want %v", v, got, exp)
			}
		}
	}

	cases := []struct {
		name   string
		mutate func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half)
	}{
		{"short offsets", func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half) { return e, o[:3], h }},
		{"offsets not from 0", func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half) {
			o[0] = 1
			return e, o, h
		}},
		{"offsets do not end at len(halves)", func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half) { return e, o, h[:5] }},
		{"non-monotone offsets", func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half) {
			o[1], o[2] = 4, 3
			return e, o, h
		}},
		{"To out of range", func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half) {
			h[0].To = 7
			return e, o, h
		}},
		{"ID out of range", func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half) {
			h[0].ID = 3
			return e, o, h
		}},
		{"edge ID at the wrong vertex", func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half) {
			h[3] = Half{ID: 0, To: 1} // edge {0,1} listed at vertex 2
			return e, o, h
		}},
		{"half points at the wrong endpoint", func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half) {
			h[2].To = 0 // edge {1,2} at vertex 1 must point at 2
			return e, o, h
		}},
		{"edge repeated at one endpoint", func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half) {
			h[2] = Half{ID: 0, To: 0} // vertex 1 lists edge 0 twice, edge 1 once
			return e, o, h
		}},
		{"edge missing its twin", func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half) {
			// A fourth edge {0,2} that no half mentions.
			return append(e, Edge{0, 2}), o, h
		}},
		{"loop missing its twin", func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half) {
			o[3] = 5
			return e, o, h[:5]
		}},
		{"halves out of edge-ID order", func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half) {
			h[1], h[2] = h[2], h[1]
			return e, o, h
		}},
		{"halves no edge accounts for", func(e []Edge, o []int32, h []Half) ([]Edge, []int32, []Half) {
			return e[:2], o, h // the loop's two halves stay at vertex 2
		}},
	}
	for _, tc := range cases {
		e, o, h := tc.mutate(edges(), off(), halves())
		if _, err := NewFrozen(3, e, o, h); !errors.Is(err, ErrMalformedCSR) {
			t.Errorf("%s: NewFrozen returned %v, want ErrMalformedCSR", tc.name, err)
		}
	}
	if _, err := NewFrozen(0, nil, []int32{0}, nil); !errors.Is(err, ErrNoVertices) {
		t.Errorf("n=0: %v, want ErrNoVertices", err)
	}
}
