package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// lgoodVertexOracle is the original map-based ℓ search, kept as the
// reference the slice-based lgoodSearch must agree with.
func lgoodVertexOracle(g *graph.Graph, v, horizon int, through []Cycle) LGoodResult {
	d := g.Degree(v)
	if d%2 != 0 || d == 0 {
		return LGoodResult{Ell: math.MaxInt, Exact: true}
	}
	incident := make(map[int]bool, d)
	for _, h := range g.Adj(v) {
		incident[int(h.ID)] = true
	}
	best := math.MaxInt
	usedEdges := make(map[int]bool)
	unionVerts := make(map[int]bool)
	var search func(uncovered map[int]bool)
	search = func(uncovered map[int]bool) {
		if len(uncovered) == 0 {
			if len(unionVerts) < best {
				best = len(unionVerts)
			}
			return
		}
		if len(unionVerts) >= best {
			return
		}
		target := -1
		for id := range uncovered {
			if target == -1 || id < target {
				target = id
			}
		}
		for _, c := range through {
			hasTarget := false
			conflict := false
			for _, id := range c.Edges {
				if id == target {
					hasTarget = true
				}
				if usedEdges[id] {
					conflict = true
					break
				}
			}
			if !hasTarget || conflict {
				continue
			}
			var coveredNow []int
			for _, id := range c.Edges {
				if incident[id] && uncovered[id] {
					delete(uncovered, id)
					coveredNow = append(coveredNow, id)
				}
			}
			var newVerts []int
			for _, u := range c.Vertices {
				if !unionVerts[u] {
					unionVerts[u] = true
					newVerts = append(newVerts, u)
				}
			}
			for _, id := range c.Edges {
				usedEdges[id] = true
			}
			search(uncovered)
			for _, id := range c.Edges {
				delete(usedEdges, id)
			}
			for _, u := range newVerts {
				delete(unionVerts, u)
			}
			for _, id := range coveredNow {
				uncovered[id] = true
			}
		}
	}
	uncovered := make(map[int]bool, d)
	for id := range incident {
		uncovered[id] = true
	}
	search(uncovered)
	if best > horizon+1 {
		return LGoodResult{Ell: horizon + 1, Exact: false}
	}
	return LGoodResult{Ell: best, Exact: true}
}

// randomEvenMultigraph is the union of k random closed walks of length
// 2..maxLen on n vertices: every vertex has even degree, and repeated
// or adjacent repeated vertices give parallel edges and loops.
func randomEvenMultigraph(r *rand.Rand, n, k, maxLen int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < k; i++ {
		walkLen := 2 + r.Intn(maxLen-1)
		first := r.Intn(n)
		prev := first
		for j := 1; j < walkLen; j++ {
			next := r.Intn(n)
			edges = append(edges, graph.Edge{U: prev, V: next})
			prev = next
		}
		edges = append(edges, graph.Edge{U: prev, V: first})
	}
	return graph.MustFromEdges(n, edges)
}

// The slice-based ℓ search agrees with the map-based oracle, vertex by
// vertex and graph-wide, on random even-degree graphs and on
// multigraphs with loops and parallel edges, at horizons from 3 to 10.
// The search is exponential in d(v)/2, so denser graphs stop at a lower
// horizon.
func TestLGoodMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	type testCase struct {
		name       string
		g          *graph.Graph
		maxHorizon int
	}
	var cases []testCase
	for i := 0; i < 4; i++ {
		n := 40 + r.Intn(40)
		degs := make([]int, n)
		for v := range degs {
			degs[v] = []int{2, 4, 4}[r.Intn(3)]
		}
		g, err := gen.RandomDegreeSequenceSW(r, degs)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, testCase{fmt.Sprintf("degrees 2,4 n=%d #%d", n, i), g, 10})
		n = 6 + r.Intn(18)
		cases = append(cases, testCase{fmt.Sprintf("multigraph n=%d #%d", n, i), randomEvenMultigraph(r, n, 3+r.Intn(4), 8), 10})
	}
	for i := 0; i < 2; i++ {
		n := 100 + r.Intn(100)
		g, err := gen.RandomRegularSW(r, n, 4)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, testCase{fmt.Sprintf("4-regular n=%d", n), g, 8})
	}
	g6, err := gen.RandomRegularSW(r, 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, testCase{"6-regular n=100", g6, 5})
	loops, parallel := 0, 0
	for _, c := range cases {
		pairs := make(map[graph.Edge]bool, c.g.M())
		for _, e := range c.g.Edges() {
			if e.IsLoop() {
				loops++
				continue
			}
			pair := graph.Edge{U: min(e.U, e.V), V: max(e.U, e.V)}
			if pairs[pair] {
				parallel++
			}
			pairs[pair] = true
		}
	}
	if loops == 0 || parallel == 0 {
		t.Fatalf("cases have %d loops and %d parallel edges; want both", loops, parallel)
	}
	for _, c := range cases {
		if !c.g.IsEvenDegree() {
			t.Fatalf("%s: generator produced an odd-degree vertex", c.name)
		}
		for horizon := 3; horizon <= c.maxHorizon; horizon++ {
			cycles, err := Census(c.g, horizon, 0)
			if err != nil {
				t.Fatalf("%s h=%d: %v", c.name, horizon, err)
			}
			// The oracle's graph-wide result folds its per-vertex results
			// exactly as LGoodGraph does.
			want := LGoodResult{Ell: math.MaxInt, Exact: true}
			for v := 0; v < c.g.N(); v++ {
				rv := lgoodVertexOracle(c.g, v, horizon, CyclesThroughVertex(cycles, v))
				if got := LGoodVertex(c.g, v, horizon, cycles); got != rv {
					t.Fatalf("%s h=%d v=%d: LGoodVertex %+v, oracle %+v", c.name, horizon, v, got, rv)
				}
				if rv.Ell < want.Ell {
					want = rv
				} else if rv.Ell == want.Ell && !rv.Exact {
					want.Exact = false
				}
			}
			got, err := LGoodGraph(c.g, horizon)
			if err != nil {
				t.Fatalf("%s h=%d: %v", c.name, horizon, err)
			}
			if got != want {
				t.Fatalf("%s h=%d: LGoodGraph %+v, oracle %+v", c.name, horizon, got, want)
			}
		}
	}
}
