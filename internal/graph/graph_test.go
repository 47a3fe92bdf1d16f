package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// pathEdges returns the edges {i, i+1} of the n-vertex path.
func pathEdges(n int) []Edge {
	var edges []Edge
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	return edges
}

// cycleEdges returns the edges of C_n: the path plus {n-1, 0}.
func cycleEdges(n int) []Edge { return append(pathEdges(n), Edge{n - 1, 0}) }

// completeEdges returns the edges {i, j}, i < j, of K_n.
func completeEdges(n int) []Edge {
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{i, j})
		}
	}
	return edges
}

func path(t *testing.T, n int) *Graph {
	t.Helper()
	return MustFromEdges(n, pathEdges(n))
}

func cycle(t *testing.T, n int) *Graph {
	t.Helper()
	return MustFromEdges(n, cycleEdges(n))
}

func complete(t *testing.T, n int) *Graph {
	t.Helper()
	return MustFromEdges(n, completeEdges(n))
}

// A graph needs a vertex: NewFromEdges reports ErrNoVertices and
// MustFromEdges panics with it.
func TestNewPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewFromEdges(n, nil); !errors.Is(err, ErrNoVertices) {
			t.Errorf("NewFromEdges(%d) err = %v, want ErrNoVertices", n, err)
		}
	}
	defer func() {
		if r := recover(); r != ErrNoVertices {
			t.Fatalf("MustFromEdges(0) recovered %v, want ErrNoVertices", r)
		}
	}()
	MustFromEdges(0, nil)
}

// The 32-bit Half contract: constructors reject n beyond MaxSize
// before allocating anything (m beyond MaxEdges is unreachable in a
// test, but shares the same ErrTooLarge gate).
func TestNewRejectsOversizedGraphs(t *testing.T) {
	if _, err := NewFromEdges(MaxSize+1, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("NewFromEdges(MaxSize+1) err = %v, want ErrTooLarge", err)
	}
	if _, err := NewFrozen(MaxSize+1, nil, nil, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("NewFrozen(MaxSize+1) err = %v, want ErrTooLarge", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := NewFromEdges(MaxSize+1, []Edge{{0, 1}}); err == nil {
			t.Fatal("NewFromEdges(MaxSize+1) accepted")
		}
	})
	if allocs > 4 {
		t.Errorf("rejecting an oversize graph made %.0f allocations, want only the error's", allocs)
	}
}

// An edge whose endpoint lies outside [0, n) is refused with
// ErrVertexRange, whichever endpoint is out of range.
func TestAddEdgeRangeError(t *testing.T) {
	for _, e := range []Edge{{0, 3}, {3, 0}, {-1, 0}, {0, -1}} {
		if _, err := NewFromEdges(3, []Edge{{0, 1}, e}); !errors.Is(err, ErrVertexRange) {
			t.Errorf("edge %v in a 3-vertex graph: err = %v, want ErrVertexRange", e, err)
		}
	}
}

func TestDegreeAndHandshake(t *testing.T) {
	// A loop: degree 2 at vertex 2; and a parallel edge {0, 1}.
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 2}, {0, 1}})
	wantDeg := []int{2, 3, 3, 0}
	for v, want := range wantDeg {
		if got := g.Degree(v); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
	if g.DegreeSum() != 2*g.M() {
		t.Errorf("handshake: degree sum %d != 2m %d", g.DegreeSum(), 2*g.M())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 3, V: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Fatal("Other returned wrong endpoint")
	}
	loop := Edge{U: 5, V: 5}
	if loop.Other(5) != 5 {
		t.Fatal("Other on loop should return same vertex")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	e.Other(1)
}

func TestIsSimple(t *testing.T) {
	g := complete(t, 4)
	if !g.IsSimple() {
		t.Error("K4 should be simple")
	}
	g = MustFromEdges(4, append(completeEdges(4), Edge{0, 1}))
	if g.IsSimple() {
		t.Error("parallel edge not detected")
	}
	h := MustFromEdges(2, []Edge{{0, 0}})
	if h.IsSimple() {
		t.Error("loop not detected")
	}
}

func TestIsRegularAndEvenDegree(t *testing.T) {
	c := cycle(t, 6)
	if d, ok := c.IsRegular(); !ok || d != 2 {
		t.Errorf("cycle: IsRegular = (%d,%v), want (2,true)", d, ok)
	}
	if !c.IsEvenDegree() {
		t.Error("cycle should be even degree")
	}
	p := path(t, 4)
	if _, ok := p.IsRegular(); ok {
		t.Error("path should not be regular")
	}
	if p.IsEvenDegree() {
		t.Error("path endpoints have odd degree")
	}
	k4 := complete(t, 4)
	if k4.IsEvenDegree() {
		t.Error("K4 is 3-regular, odd")
	}
}

func TestBFSAndConnectivity(t *testing.T) {
	p := path(t, 5)
	dist := p.BFSFrom(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	if !p.IsConnected() {
		t.Error("path should be connected")
	}
	g := MustFromEdges(4, []Edge{{0, 1}, {2, 3}})
	if g.IsConnected() {
		t.Error("two components reported connected")
	}
	label, count := g.Components()
	if count != 2 {
		t.Fatalf("Components count = %d, want 2", count)
	}
	if label[0] != label[1] || label[2] != label[3] || label[0] == label[2] {
		t.Errorf("component labels wrong: %v", label)
	}
}

func TestIsBipartite(t *testing.T) {
	if !cycle(t, 6).IsBipartite() {
		t.Error("even cycle should be bipartite")
	}
	if cycle(t, 5).IsBipartite() {
		t.Error("odd cycle should not be bipartite")
	}
	if !path(t, 7).IsBipartite() {
		t.Error("path should be bipartite")
	}
	g := MustFromEdges(2, []Edge{{0, 0}})
	if g.IsBipartite() {
		t.Error("loop graph should not be bipartite")
	}
}

func TestDiameterAndEccentricity(t *testing.T) {
	p := path(t, 6)
	if d := p.Diameter(); d != 5 {
		t.Errorf("path diameter = %d, want 5", d)
	}
	c := cycle(t, 8)
	if d := c.Diameter(); d != 4 {
		t.Errorf("C8 diameter = %d, want 4", d)
	}
	g := MustFromEdges(3, []Edge{{0, 1}})
	if g.Diameter() != -1 {
		t.Error("disconnected graph should have diameter -1")
	}
}

func TestGirth(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path (acyclic)", path(t, 5), -1},
		{"C3", cycle(t, 3), 3},
		{"C5", cycle(t, 5), 5},
		{"C12", cycle(t, 12), 12},
		{"K4", complete(t, 4), 3},
		{"K5", complete(t, 5), 3},
	}
	for _, tc := range cases {
		if got := tc.g.Girth(); got != tc.want {
			t.Errorf("%s: girth = %d, want %d", tc.name, got, tc.want)
		}
	}
	loop := MustFromEdges(1, []Edge{{0, 0}})
	if loop.Girth() != 1 {
		t.Error("loop girth should be 1")
	}
	par := MustFromEdges(2, []Edge{{0, 1}, {0, 1}})
	if par.Girth() != 2 {
		t.Error("parallel-edge girth should be 2")
	}
	// Petersen graph: girth 5.
	petersen := MustFromEdges(10, []Edge{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, // outer C5
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}, // inner pentagram
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}, // spokes
	})
	if got := petersen.Girth(); got != 5 {
		t.Errorf("Petersen girth = %d, want 5", got)
	}
	// Two-cycle union: girth is the smaller cycle.
	g := MustFromEdges(9, append(cycleEdges(9), Edge{0, 4})) // a 5-cycle and a 6-cycle
	if got := g.Girth(); got != 5 {
		t.Errorf("chorded C9 girth = %d, want 5", got)
	}
}

func TestContractRetainsLoopsAndMultiplicity(t *testing.T) {
	// C6; contract {0,1,2}: edge {0,1},{1,2} become loops at γ,
	// edges {2,3},{5,0} become γ-edges, {3,4},{4,5} survive.
	g := cycle(t, 6)
	gamma, gid, oldToNew := g.Contract([]int{0, 1, 2})
	if gamma.N() != 4 {
		t.Fatalf("contracted N = %d, want 4", gamma.N())
	}
	if gamma.M() != g.M() {
		t.Fatalf("contraction must preserve edge count: %d != %d", gamma.M(), g.M())
	}
	if gamma.Degree(gid) != g.DegreeOf([]int{0, 1, 2}) {
		t.Errorf("d(γ) = %d, want d(S) = %d", gamma.Degree(gid), g.DegreeOf([]int{0, 1, 2}))
	}
	loops := 0
	for _, e := range gamma.Edges() {
		if e.IsLoop() && e.U == gid {
			loops++
		}
	}
	if loops != 2 {
		t.Errorf("loops at γ = %d, want 2", loops)
	}
	for _, v := range []int{0, 1, 2} {
		if oldToNew[v] != gid {
			t.Errorf("oldToNew[%d] = %d, want γ=%d", v, oldToNew[v], gid)
		}
	}
	if err := gamma.Validate(); err != nil {
		t.Error(err)
	}
}

func TestContractSingletonIsRelabel(t *testing.T) {
	g := complete(t, 4)
	gamma, _, _ := g.Contract([]int{2})
	if gamma.N() != g.N() || gamma.M() != g.M() {
		t.Fatal("contracting a singleton should preserve n and m")
	}
	if !gamma.IsSimple() {
		t.Error("contracting a singleton of a simple graph should stay simple")
	}
}

func TestContractDuplicatesInS(t *testing.T) {
	g := cycle(t, 5)
	gamma, gid, _ := g.Contract([]int{1, 1, 2})
	if gamma.N() != 4 {
		t.Fatalf("N = %d, want 4 (duplicates ignored)", gamma.N())
	}
	if gamma.Degree(gid) != 4 {
		t.Errorf("d(γ) = %d, want 4", gamma.Degree(gid))
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := complete(t, 5)
	sub, oldToNew := g.InducedSubgraph([]int{0, 1, 2})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("K5[0,1,2] = (n=%d,m=%d), want triangle", sub.N(), sub.M())
	}
	if oldToNew[3] != -1 || oldToNew[4] != -1 {
		t.Error("excluded vertices should map to -1")
	}
}

func TestDegreeOf(t *testing.T) {
	g := complete(t, 5)
	if got := g.DegreeOf([]int{0, 1}); got != 8 {
		t.Errorf("d(X) = %d, want 8", got)
	}
	if got := g.DegreeOf([]int{0, 1, 1}); got != 8 {
		t.Errorf("d(X) with a repeated vertex = %d, want 8", got)
	}
}

func TestBallAround(t *testing.T) {
	p := path(t, 9)
	ball, leaves := p.BallAround(4, 2)
	if len(ball) != 5 {
		t.Errorf("ball size = %d, want 5", len(ball))
	}
	if len(leaves) != 2 {
		t.Errorf("leaves = %v, want 2 vertices", leaves)
	}
	for _, l := range leaves {
		if l != 2 && l != 6 {
			t.Errorf("unexpected leaf %d", l)
		}
	}
	// Radius 0: ball is just the root.
	ball, leaves = p.BallAround(4, 0)
	if len(ball) != 1 || len(leaves) != 1 || ball[0] != 4 {
		t.Error("radius-0 ball should be the root alone")
	}
}

func randomGraph(r *rand.Rand, n, m int) *Graph {
	return MustFromEdges(n, randomEdges(r, n, m))
}

// randomEdges draws m uniform edges on n vertices, loops and parallel
// edges included.
func randomEdges(r *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{r.Intn(n), r.Intn(n)}
	}
	return edges
}

func TestPropertyHandshakeOnRandomMultigraphs(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%50) + 1
		m := int(mRaw % 100)
		g := randomGraph(rand.New(rand.NewSource(seed)), n, m)
		return g.DegreeSum() == 2*g.M() && g.Validate() == nil
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyContractPreservesEdges(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw, mRaw, sRaw uint8) bool {
		n := int(nRaw%40) + 2
		m := int(mRaw % 80)
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, n, m)
		sSize := int(sRaw%uint8(n-1)) + 1
		s := r.Perm(n)[:sSize]
		gamma, gid, _ := g.Contract(s)
		return gamma.M() == g.M() &&
			gamma.Degree(gid) == g.DegreeOf(s) &&
			gamma.Validate() == nil
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBFSDistanceTriangleInequality(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30) + 3
		g := randomGraph(r, n, 3*n)
		a, b := r.Intn(n), r.Intn(n)
		da := g.BFSFrom(a)
		db := g.BFSFrom(b)
		for v := 0; v < n; v++ {
			if da[v] == -1 || db[v] == -1 || da[b] == -1 {
				continue
			}
			if da[v] > da[b]+db[v] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// refGraph is a per-vertex adjacency builder: addEdge appends each
// edge's two halves to its endpoints' lists, the obvious layout the
// CSR must reproduce.
type refGraph struct {
	edges []Edge
	adj   [][]Half
}

func (r *refGraph) addEdge(u, v int) error {
	if u < 0 || u >= len(r.adj) || v < 0 || v >= len(r.adj) {
		return fmt.Errorf("%w: edge {%d,%d} in graph of %d vertices", ErrVertexRange, u, v, len(r.adj))
	}
	id := uint32(len(r.edges))
	r.edges = append(r.edges, Edge{u, v})
	r.adj[u] = append(r.adj[u], Half{ID: id, To: uint32(v)})
	r.adj[v] = append(r.adj[v], Half{ID: id, To: uint32(u)})
	return nil
}

// NewFromEdges must build exactly the graph the per-vertex reference
// builds with one addEdge per edge — same edge IDs, adjacency order,
// CSR halves and offsets — which NewFrozen accepts as is, without
// keeping the caller's slice, and report the first bad edge as the
// reference does.
func TestNewFromEdgesMatchesAddEdge(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(12)
		edges := randomEdges(r, n, r.Intn(30))
		want := refGraph{adj: make([][]Half, n)}
		for _, e := range edges {
			must(want.addEdge(e.U, e.V))
		}
		got, err := NewFromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if got.N() != n || got.M() != len(want.edges) {
			t.Fatalf("trial %d: (n, m) = (%d, %d), want (%d, %d)", trial, got.N(), got.M(), n, len(want.edges))
		}
		for id, e := range want.edges {
			if got.Edge(id) != e {
				t.Fatalf("trial %d: edge %d = %v, want %v", trial, id, got.Edge(id), e)
			}
		}
		var wantHalves []Half
		wantOff := []int32{0}
		for v, adj := range want.adj {
			if !slices.Equal(got.Adj(v), adj) || got.Degree(v) != len(adj) {
				t.Fatalf("trial %d: vertex %d adjacency %v, want %v", trial, v, got.Adj(v), adj)
			}
			wantHalves = append(wantHalves, adj...)
			wantOff = append(wantOff, int32(len(wantHalves)))
		}
		if !slices.Equal(got.Halves(), wantHalves) {
			t.Fatalf("trial %d: CSR halves %v, want %v", trial, got.Halves(), wantHalves)
		}
		if !slices.Equal(got.Offsets(), wantOff) {
			t.Fatalf("trial %d: CSR offsets %v, want %v", trial, got.Offsets(), wantOff)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := NewFrozen(n, got.Edges(), slices.Clone(got.Offsets()), slices.Clone(got.Halves())); err != nil {
			t.Fatalf("trial %d: NewFrozen rejects the CSR NewFromEdges built: %v", trial, err)
		}
		// The graph does not keep the caller's slice.
		if len(edges) > 0 {
			edges[0] = Edge{n, n}
			if got.Edge(0) != want.edges[0] {
				t.Fatalf("trial %d: rewriting the input changed edge 0 to %v", trial, got.Edge(0))
			}
		}
	}
	// A build allocates the edge copy, the offsets, the halves and the
	// Graph, nothing more: the counting sort's cursor is the offsets.
	edges := randomEdges(r, 12, 30)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := NewFromEdges(12, edges); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4 {
		t.Errorf("NewFromEdges made %.0f allocations, want 4", allocs)
	}
	// The first bad edge is reported, as the reference reports it.
	bad := []Edge{{U: 0, V: 1}, {U: 1, V: 3}, {U: -1, V: 0}}
	ref := refGraph{adj: make([][]Half, 3)}
	var wantErr error
	for _, e := range bad {
		if wantErr = ref.addEdge(e.U, e.V); wantErr != nil {
			break
		}
	}
	_, err := NewFromEdges(3, bad)
	if !errors.Is(err, ErrVertexRange) || err.Error() != wantErr.Error() || err.Error() != "graph: vertex out of range: edge {1,3} in graph of 3 vertices" {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

// BenchmarkNewFromEdges builds a seeded random 4-regular multigraph
// edge list (n = 10⁵, m = 2·10⁵: two random perfect matchings of the
// 4n stubs, loops and parallel edges kept) into a Graph.
func BenchmarkNewFromEdges(b *testing.B) {
	const n = 100_000
	r := rand.New(rand.NewSource(1))
	stubs := make([]int, 0, 4*n)
	for v := 0; v < n; v++ {
		stubs = append(stubs, v, v, v, v)
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	edges := make([]Edge, 0, 2*n)
	for i := 0; i < len(stubs); i += 2 {
		edges = append(edges, Edge{stubs[i], stubs[i+1]})
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewFromEdges(n, edges); err != nil {
			b.Fatal(err)
		}
	}
}
