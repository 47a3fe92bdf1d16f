package core

import (
	"errors"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
)

// ErrCensusCap is returned when cycle enumeration hits its result cap,
// meaning the census is incomplete and dependent quantities are only
// bounds.
var ErrCensusCap = errors.New("core: cycle census cap reached")

// Cycle is a simple cycle recorded by the census: its vertices in
// traversal order and the IDs of its edges.
type Cycle struct {
	Vertices []int
	Edges    []int
}

// Len returns the cycle length (number of edges = number of vertices).
func (c Cycle) Len() int { return len(c.Edges) }

// Census enumerates every simple cycle of length at most maxLen in g,
// up to cap cycles (cap <= 0 means 1<<20). On sparse graphs short
// cycles are rare — for random r-regular graphs the number of k-cycles
// is Poisson with mean (r−1)^k/(2k) — so the enumeration is fast in the
// regimes the paper's Section 4 uses it.
//
// Each cycle is reported exactly once: enumeration roots a DFS at the
// cycle's minimum-labelled vertex and fixes the traversal direction by
// requiring the second vertex's label to be smaller than the last's.
// Multigraph features are handled: a loop is a 1-cycle and a pair of
// parallel edges a 2-cycle.
func Census(g *graph.Graph, maxLen, cap int) ([]Cycle, error) {
	if cap <= 0 {
		cap = 1 << 20
	}
	var out []Cycle
	if maxLen < 1 {
		return out, nil
	}

	// Loops, then the 2-cycles of each set of parallel edges, the sets
	// in order of their first (lowest) edge ID.
	var pairs []Cycle
	var par []int
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if e.IsLoop() {
			out = append(out, Cycle{Vertices: []int{e.U}, Edges: []int{id}})
			continue
		}
		if maxLen < 2 {
			continue
		}
		u, v := min(e.U, e.V), max(e.U, e.V)
		par = par[:0]
		for _, h := range g.Adj(u) {
			if int(h.To) == v {
				par = append(par, int(h.ID))
			}
		}
		slices.Sort(par)
		if len(par) < 2 || par[0] != id {
			continue
		}
		for i := 0; i < len(par); i++ {
			for j := i + 1; j < len(par); j++ {
				pairs = append(pairs, Cycle{Vertices: []int{u, v}, Edges: []int{par[i], par[j]}})
			}
		}
	}
	out = append(out, pairs...)
	if len(out) > cap {
		return out[:cap], ErrCensusCap
	}
	if maxLen < 3 {
		return out, nil
	}

	// Simple cycles of length >= 3 by rooted DFS.
	n := g.N()
	onPath := make([]bool, n)
	pathV := make([]int, 0, maxLen)
	pathE := make([]int, 0, maxLen)
	var capErr error

	// dist holds the current root's bounded-BFS distances (-1 outside
	// the ball); ball lists the vertices it set, so resetting costs
	// the ball's size rather than n.
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	var ball []int
	var root int
	var dfs func(v int)
	dfs = func(v int) {
		if capErr != nil {
			return
		}
		for _, h := range g.Adj(v) {
			w := int(h.To)
			if w < root || (len(pathE) > 0 && int(h.ID) == pathE[len(pathE)-1]) {
				continue
			}
			if w == root && len(pathV) >= 3 {
				// Close the cycle; dedupe direction: second vertex
				// label < last vertex label.
				if pathV[1] < pathV[len(pathV)-1] {
					cyc := Cycle{
						Vertices: append([]int(nil), pathV...),
						Edges:    append(append([]int(nil), pathE...), int(h.ID)),
					}
					out = append(out, cyc)
					if len(out) >= cap {
						capErr = ErrCensusCap
						return
					}
				}
				continue
			}
			if w == root || onPath[w] || len(pathV) >= maxLen {
				continue
			}
			d := dist[w]
			if d < 0 || len(pathV)+d > maxLen {
				continue
			}
			onPath[w] = true
			pathV = append(pathV, w)
			pathE = append(pathE, int(h.ID))
			dfs(w)
			onPath[w] = false
			pathV = pathV[:len(pathV)-1]
			pathE = pathE[:len(pathE)-1]
		}
	}

	for root = 0; root < n && capErr == nil; root++ {
		// Distance-to-root pruning within the relevant ball: a path of
		// length L from root can only close into a ≤maxLen cycle if the
		// current vertex is within maxLen−L of root.
		ball = boundedBFS(g, root, maxLen-1, dist, ball[:0])
		onPath[root] = true
		pathV = append(pathV[:0], root)
		pathE = pathE[:0]
		dfs(root)
		onPath[root] = false
		for _, v := range ball {
			dist[v] = -1
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Len() < out[j].Len() })
	return out, capErr
}

// boundedBFS writes into dist (all -1 on entry) the distances from
// root within radius, skipping vertices with labels below root (they
// cannot participate in cycles rooted at root). It appends the vertices
// it reached to queue, in BFS order, and returns it.
func boundedBFS(g *graph.Graph, root, radius int, dist, queue []int) []int {
	dist[root] = 0
	queue = append(queue, root)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if dist[v] == radius {
			continue
		}
		for _, h := range g.Adj(v) {
			w := int(h.To)
			if w < root {
				continue
			}
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// CycleCounts returns N_k, the number of cycles of each length k ≤
// maxLen, indexed by length (index 0 and lengths with no cycles are 0).
func CycleCounts(cycles []Cycle, maxLen int) []int {
	counts := make([]int, maxLen+1)
	for _, c := range cycles {
		if c.Len() <= maxLen {
			counts[c.Len()]++
		}
	}
	return counts
}

// ExpectedCycleCount returns the asymptotic expected number of
// k-cycles in a random r-regular graph: E N_k → (r−1)^k / (2k)
// (the Poisson limit used in the paper's Section 4.2, where
// E N_k = θ_k r^k / k with θ_k = ((r−1)/r)^k / 2).
func ExpectedCycleCount(r, k int) float64 {
	if k < 3 || r < 3 {
		return 0
	}
	return math.Pow(float64(r-1), float64(k)) / (2 * float64(k))
}

// CyclesThroughVertex filters the census to cycles containing v.
func CyclesThroughVertex(cycles []Cycle, v int) []Cycle {
	var out []Cycle
	for _, c := range cycles {
		for _, u := range c.Vertices {
			if u == v {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// VertexDisjointShortCycles reports whether all cycles of length at
// most maxLen are pairwise vertex-disjoint — the structural consequence
// of (P2) the paper uses in Section 4.2 ("whp all cycles of length k,
// 3 ≤ k ≤ ε·log n, are vertex disjoint").
func VertexDisjointShortCycles(cycles []Cycle) bool {
	seen := make(map[int]int) // vertex -> cycle index
	for i, c := range cycles {
		for _, v := range c.Vertices {
			if j, ok := seen[v]; ok && j != i {
				return false
			}
			seen[v] = i
		}
	}
	return true
}
