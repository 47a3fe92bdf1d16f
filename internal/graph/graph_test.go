package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func path(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func cycle(t *testing.T, n int) *Graph {
	t.Helper()
	g := path(t, n)
	if err := g.AddEdge(n-1, 0); err != nil {
		t.Fatal(err)
	}
	return g
}

func complete(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddEdge(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func TestNewPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

// The 32-bit Half contract: constructors reject n beyond MaxSize
// before allocating anything (m beyond MaxSize is unreachable in a
// test, but shares the same ErrTooLarge gate in AddEdge).
func TestNewRejectsOversizedGraphs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(MaxSize+1) did not panic")
		}
	}()
	if _, err := NewFromEdges(MaxSize+1, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("NewFromEdges(MaxSize+1) err = %v, want ErrTooLarge", err)
	}
	New(MaxSize + 1)
}

func TestAddEdgeRangeError(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 3); err == nil {
		t.Fatal("expected range error for endpoint 3")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("expected range error for endpoint -1")
	}
}

func TestDegreeAndHandshake(t *testing.T) {
	g := New(4)
	must(g.AddEdge(0, 1))
	must(g.AddEdge(1, 2))
	must(g.AddEdge(2, 2)) // loop: degree 2 at vertex 2
	must(g.AddEdge(0, 1)) // parallel edge
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
	must(g.AddEdge(0, 1))
	if g.IsSimple() {
		t.Error("parallel edge not detected")
	}
	h := New(2)
	must(h.AddEdge(0, 0))
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

func TestCloneIsDeep(t *testing.T) {
	g := cycle(t, 5)
	c := g.Clone()
	must(c.AddEdge(0, 2))
	if g.M() != 5 || c.M() != 6 {
		t.Fatalf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
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
	g := New(4)
	must(g.AddEdge(0, 1))
	must(g.AddEdge(2, 3))
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
	g := New(2)
	must(g.AddEdge(0, 0))
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
	g := New(3)
	must(g.AddEdge(0, 1))
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
	loop := New(1)
	must(loop.AddEdge(0, 0))
	if loop.Girth() != 1 {
		t.Error("loop girth should be 1")
	}
	par := New(2)
	must(par.AddEdge(0, 1))
	must(par.AddEdge(0, 1))
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
	g := cycle(t, 9)
	must(g.AddEdge(0, 4)) // creates a 5-cycle and a 6-cycle
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
	g := New(n)
	for i := 0; i < m; i++ {
		must(g.AddEdge(r.Intn(n), r.Intn(n)))
	}
	return g
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

// NewFromEdges must build exactly the graph New plus one AddEdge per
// edge builds — same edge IDs, adjacency order, errors and
// frozen CSR.
func TestNewFromEdgesMatchesAddEdge(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(12)
		edges := make([]Edge, r.Intn(30))
		for i := range edges {
			edges[i] = Edge{U: r.Intn(n), V: r.Intn(n)} // loops and parallels included
		}
		want := New(n)
		for _, e := range edges {
			if err := want.AddEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		got, err := NewFromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if got.M() != want.M() || got.Frozen() {
			t.Fatalf("trial %d: m %d frozen %v, want %d false", trial, got.M(), got.Frozen(), want.M())
		}
		for id := 0; id < want.M(); id++ {
			if got.Edge(id) != want.Edge(id) {
				t.Fatalf("trial %d: edge %d = %v, want %v", trial, id, got.Edge(id), want.Edge(id))
			}
		}
		for v := 0; v < n; v++ {
			ga, wa := got.Adj(v), want.Adj(v)
			if len(ga) != len(wa) {
				t.Fatalf("trial %d: vertex %d adjacency len %d, want %d", trial, v, len(ga), len(wa))
			}
			for i := range wa {
				if ga[i] != wa[i] {
					t.Fatalf("trial %d: vertex %d half %d = %+v, want %+v", trial, v, i, ga[i], wa[i])
				}
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		// The frozen CSR matches too, also after one more AddEdge.
		if trial%2 == 1 {
			u, v := r.Intn(n), r.Intn(n)
			if err := got.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			if err := want.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		gh, wh := got.Halves(), want.Halves()
		goff, woff := got.Offsets(), want.Offsets()
		if len(gh) != len(wh) || len(goff) != len(woff) {
			t.Fatalf("trial %d: CSR sizes %d/%d, want %d/%d", trial, len(gh), len(goff), len(wh), len(woff))
		}
		for i := range wh {
			if gh[i] != wh[i] {
				t.Fatalf("trial %d: CSR half %d = %+v, want %+v", trial, i, gh[i], wh[i])
			}
		}
		for i := range woff {
			if goff[i] != woff[i] {
				t.Fatalf("trial %d: CSR offset %d = %d, want %d", trial, i, goff[i], woff[i])
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// The first bad edge is reported as AddEdge reports it.
	_, err := NewFromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 3}, {U: -1, V: 0}})
	if !errors.Is(err, ErrVertexRange) || err.Error() != "graph: vertex out of range: edge {1,3} in graph of 3 vertices" {
		t.Fatalf("err = %v, want the {1,3} ErrVertexRange", err)
	}
}
