package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// LGoodResult is the outcome of an ℓ-goodness computation at a vertex.
type LGoodResult struct {
	// Ell is the computed value: the minimum number of vertices of any
	// even-degree subgraph containing all edges incident with the
	// vertex — or a lower bound when Exact is false.
	Ell int
	// Exact reports whether Ell is the true minimum. When false, the
	// true ℓ(v) is at least Ell (the search horizon was exhausted
	// without finding any qualifying subgraph).
	Exact bool
}

// LGoodVertex computes ℓ(v) exactly up to the horizon: any even-degree
// subgraph containing all d(v) edges at v decomposes into d(v)/2
// edge-disjoint simple cycles through v (cycles avoiding v would be
// removable, contradicting minimality), so the minimum is found by
// searching over pairings of v's incident edges into cycles drawn from
// the census of cycles of length ≤ horizon.
//
// A cover found within the horizon is exact only if it has at most
// horizon+1 vertices: any cover that uses a longer cycle has at least
// horizon+1. When no in-horizon cover exists, or the best one is larger
// than horizon+1, the result is the certified lower bound
// Ell = horizon+1, Exact = false. Vertices of odd degree cannot lie in
// any even-degree subgraph containing all their edges, so ℓ(v) = ∞,
// reported as Ell = math.MaxInt with Exact = true.
func LGoodVertex(g *graph.Graph, v, horizon int, cycles []Cycle) LGoodResult {
	return newLGoodSearch(g).vertex(g, v, horizon, CyclesThroughVertex(cycles, v))
}

// lgoodSearch is the depth-first cover search behind LGoodVertex. The
// edge and vertex sets span the whole graph, so one search serves every
// vertex of LGoodGraph: each apply is undone on the way back, which
// leaves them all false between vertices.
type lgoodSearch struct {
	through   []Cycle // census cycles through v, in census order
	incident  []int   // distinct edge IDs at v, ascending
	uncovered []bool  // uncovered[i]: incident[i] is in no chosen cycle
	left      int     // number of uncovered incident edges
	used      []bool  // by edge ID: in a chosen cycle
	inUnion   []bool  // by vertex: on a chosen cycle
	union     int     // number of vertices on the chosen cycles
	best      int
	// Undo stacks: the incident slots and union vertices each apply
	// added, popped back to the apply's mark when it is undone.
	covered, added []int
}

func newLGoodSearch(g *graph.Graph) *lgoodSearch {
	return &lgoodSearch{used: make([]bool, g.M()), inUnion: make([]bool, g.N())}
}

// vertex is LGoodVertex given the census cycles through v, in census
// order.
func (s *lgoodSearch) vertex(g *graph.Graph, v, horizon int, through []Cycle) LGoodResult {
	d := g.Degree(v)
	if d%2 != 0 || d == 0 {
		return LGoodResult{Ell: math.MaxInt, Exact: true}
	}
	// Edge IDs incident to v that the chosen cycles must collectively
	// cover (a loop at v has two halves but one ID).
	s.incident = s.incident[:0]
	for _, h := range g.Adj(v) {
		if !slices.Contains(s.incident, int(h.ID)) {
			s.incident = append(s.incident, int(h.ID))
		}
	}
	slices.Sort(s.incident)
	s.uncovered = s.uncovered[:0]
	for range s.incident {
		s.uncovered = append(s.uncovered, true)
	}
	s.left = len(s.incident)
	s.through = through
	s.best = math.MaxInt
	s.search()
	if s.best > horizon+1 {
		return LGoodResult{Ell: horizon + 1, Exact: false}
	}
	return LGoodResult{Ell: s.best, Exact: true}
}

func (s *lgoodSearch) search() {
	if s.left == 0 {
		if s.union < s.best {
			s.best = s.union
		}
		return
	}
	if s.union >= s.best {
		return // cannot improve
	}
	// Branch on the lowest uncovered incident edge to avoid revisiting
	// the same cover in different orders.
	target := s.incident[slices.Index(s.uncovered, true)]
	for _, c := range s.through {
		hasTarget := false
		conflict := false
		for _, id := range c.Edges {
			if id == target {
				hasTarget = true
			}
			if s.used[id] {
				conflict = true
				break
			}
		}
		if !hasTarget || conflict {
			continue
		}
		// Apply.
		cmark, vmark := len(s.covered), len(s.added)
		for _, id := range c.Edges {
			if i := slices.Index(s.incident, id); i >= 0 && s.uncovered[i] {
				s.uncovered[i] = false
				s.covered = append(s.covered, i)
			}
		}
		for _, u := range c.Vertices {
			if !s.inUnion[u] {
				s.inUnion[u] = true
				s.added = append(s.added, u)
			}
		}
		for _, id := range c.Edges {
			s.used[id] = true
		}
		s.left -= len(s.covered) - cmark
		s.union += len(s.added) - vmark
		s.search()
		// Undo.
		for _, id := range c.Edges {
			s.used[id] = false
		}
		for _, u := range s.added[vmark:] {
			s.inUnion[u] = false
		}
		for _, i := range s.covered[cmark:] {
			s.uncovered[i] = true
		}
		s.left += len(s.covered) - cmark
		s.union -= len(s.added) - vmark
		s.covered, s.added = s.covered[:cmark], s.added[:vmark]
	}
}

// LGoodGraph computes ℓ(G) = min over vertices of ℓ(v), exactly up to
// the horizon (cycle lengths ≤ horizon are searched). The bool
// semantics match LGoodVertex: when Exact is false, ℓ(G) ≥ Ell.
func LGoodGraph(g *graph.Graph, horizon int) (LGoodResult, error) {
	if !g.IsEvenDegree() {
		return LGoodResult{}, errors.New("core: ℓ-goodness is defined for even-degree graphs")
	}
	cycles, err := Census(g, horizon, 0)
	if err != nil {
		return LGoodResult{}, fmt.Errorf("core: census incomplete: %w", err)
	}
	// Index the census by vertex once (each list in census order, as
	// CyclesThroughVertex would return it) instead of rescanning every
	// cycle for each vertex.
	through := make([][]Cycle, g.N())
	for _, c := range cycles {
		for _, u := range c.Vertices {
			through[u] = append(through[u], c)
		}
	}
	s := newLGoodSearch(g)
	res := LGoodResult{Ell: math.MaxInt, Exact: true}
	for v := 0; v < g.N(); v++ {
		rv := s.vertex(g, v, horizon, through[v])
		if rv.Ell < res.Ell {
			res = rv
		} else if rv.Ell == res.Ell && !rv.Exact {
			res.Exact = res.Exact && rv.Exact
		}
	}
	return res, nil
}

// P2Holds checks the paper's property (P2) restricted to the census:
// no vertex set of size s ≤ sMax induces more than s + slack edges.
// Rather than enumerating all vertex subsets (exponential), it uses the
// equivalent cycle-space condition: a set S inducing ≥ |S|+slack+1
// edges contains slack+1 independent cycles, so it suffices that no
// union of two short cycles plus a connecting path fits in sMax
// vertices when slack = 0. This routine implements the slack = 0 case
// ("no set of vertices S of size s ≤ (log n)/(4 log re) induces more
// than s edges"): it verifies that every pair of distinct cycles from
// the census is far enough apart that their union with a shortest
// connecting path exceeds sMax vertices.
func P2Holds(g *graph.Graph, sMax int, cycles []Cycle) bool {
	// Any single cycle induces |V| = |E| edges — never violates slack 0.
	// A violation needs two distinct cycles (sharing vertices or
	// connected by a path) within sMax total vertices.
	for i := 0; i < len(cycles); i++ {
		if cycles[i].Len() > sMax {
			continue
		}
		for j := i + 1; j < len(cycles); j++ {
			if cycles[j].Len() > sMax {
				continue
			}
			size := combinedSize(g, cycles[i], cycles[j], sMax)
			if size <= sMax {
				return false
			}
		}
	}
	return true
}

// combinedSize returns |V(C1) ∪ V(C2)| plus the interior vertices of a
// shortest path connecting them (0 if they intersect), or sMax+1 when
// the true value certainly exceeds sMax.
func combinedSize(g *graph.Graph, a, b Cycle, sMax int) int {
	inA := make(map[int]bool, len(a.Vertices))
	for _, v := range a.Vertices {
		inA[v] = true
	}
	union := len(a.Vertices) + len(b.Vertices)
	for _, v := range b.Vertices {
		if inA[v] {
			union--
		}
	}
	// Intersecting cycles need no path.
	for _, v := range b.Vertices {
		if inA[v] {
			return union
		}
	}
	// Shortest connecting path via multi-source BFS from A's vertices.
	dist := make(map[int]int)
	queue := make([]int, 0, len(a.Vertices))
	for _, v := range a.Vertices {
		dist[v] = 0
		queue = append(queue, v)
	}
	inB := make(map[int]bool, len(b.Vertices))
	for _, v := range b.Vertices {
		inB[v] = true
	}
	budget := sMax - union // interior vertices allowed
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] > budget {
			break
		}
		if inB[v] {
			return union + dist[v] - 1 // interior vertices of the path
		}
		for _, h := range g.Adj(v) {
			if _, ok := dist[int(h.To)]; !ok {
				dist[int(h.To)] = dist[v] + 1
				queue = append(queue, int(h.To))
			}
		}
	}
	return sMax + 1
}

// P2LGoodBound converts (P2) into the ℓ-goodness statement of Section
// 4.1: if no set of s ≤ ell vertices induces more than s edges, then
// every vertex of an r-regular graph with r ≥ 4 is ell-good, because
// the minimal even-degree subgraph through a degree-≥4 vertex has k
// vertices and at least k+1 induced edges.
func P2LGoodBound(g *graph.Graph, sMax int) (bool, error) {
	deg, regular := g.IsRegular()
	if !regular || deg < 4 || deg%2 != 0 {
		return false, errors.New("core: P2 ℓ-good route needs r-regular, r >= 4 even")
	}
	cycles, err := Census(g, sMax, 0)
	if err != nil {
		return false, fmt.Errorf("core: census incomplete: %w", err)
	}
	return P2Holds(g, sMax, cycles), nil
}
