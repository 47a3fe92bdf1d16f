package gen

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// ErrDegreeSequence reports an unrealisable degree request.
var ErrDegreeSequence = errors.New("gen: infeasible degree sequence")

// RandomRegular returns a uniformly random simple connected r-regular
// graph on n vertices, generated by the pairing (configuration) model
// with rejection of configurations containing loops, parallel edges, or
// disconnection. Conditioned on acceptance the simple graphs are exactly
// uniform; for constant r the acceptance probability tends to the
// constant e^{-(r²-1)/4}, so expected retries are O(1).
//
// For large n prefer RandomRegularSW, which is what the paper's own
// experiments used (via NetworkX).
func RandomRegular(r *rand.Rand, n, deg int) (*graph.Graph, error) {
	if err := checkRegular(n, deg); err != nil {
		return nil, err
	}
	degrees := make([]int, n)
	for v := range degrees {
		degrees[v] = deg
	}
	if g := configurationModel(r, degrees, n*deg, 10000); g != nil {
		return g, nil
	}
	return nil, fmt.Errorf("gen: pairing model failed after retries (n=%d, r=%d)", n, deg)
}

// RandomRegularSW returns a random simple connected r-regular graph
// using a Steger–Wormald-style incremental pairing: unmatched half-edge
// points are paired one at a time, always rejecting pairs that would
// create a loop or parallel edge; if the process gets stuck (all
// remaining feasible pairs exhausted) the whole attempt restarts. The
// resulting distribution is asymptotically uniform for constant degree
// (Steger & Wormald 1999) and the algorithm is the one behind the
// NetworkX generator the paper used.
//
// The parallel-edge check is a linear scan of the at most r partners a
// vertex already has (O(r) per draw, no per-vertex sets), so the number
// of allocations an attempt makes does not grow with n. The attempt
// writes the graph's CSR directly.
func RandomRegularSW(r *rand.Rand, n, deg int) (*graph.Graph, error) {
	if err := checkRegular(n, deg); err != nil {
		return nil, err
	}
	degrees := make([]int, n)
	for v := range degrees {
		degrees[v] = deg
	}
	const maxRestarts = 1000
	for attempt := 0; attempt < maxRestarts; attempt++ {
		if g := swAttempt(r, degrees, n*deg); g != nil {
			return g, nil
		}
	}
	return nil, fmt.Errorf("gen: Steger-Wormald failed after retries (n=%d, r=%d)", n, deg)
}

// swAttempt runs one Steger–Wormald pairing of the given degree
// sequence (total = its sum) and returns the graph, or nil when
// the pairing gets stuck or the result is disconnected.
//
// It writes the CSR directly: vertex v owns the half slots
// halves[off[v]:off[v+1]] (off is the degree prefix sum) and fills
// them in edge-creation order, which is the adjacency order
// graph.NewFromEdges gives the same edge list.
func swAttempt(r *rand.Rand, degrees []int, total int) *graph.Graph {
	if total/2 > graph.MaxEdges {
		// The int32 slab offsets below rely on the graph size contract.
		panic(fmt.Errorf("%w: m=%d", graph.ErrTooLarge, total/2))
	}
	n := len(degrees)
	// live is the multiset of vertices with unmatched half-edges, one
	// entry per half-edge, maintained with swap-delete for O(1) removal.
	live := make([]int32, 0, total)
	off := make([]int32, n+1)
	for v, d := range degrees {
		off[v] = int32(len(live))
		for i := 0; i < d; i++ {
			live = append(live, int32(v))
		}
	}
	off[n] = int32(total)
	halves := make([]graph.Half, total)
	// fill[v] counts the halves v has so far.
	fill := make([]int32, n)
	adjacent := func(u, v int32) bool {
		for _, h := range halves[off[u] : off[u]+fill[u]] {
			if h.To == uint32(v) {
				return true
			}
		}
		return false
	}
	edges := make([]graph.Edge, 0, total/2)
	remove := func(idx int) {
		live[idx] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	for len(live) > 0 {
		// Pick a uniformly random feasible pair; give up on this
		// attempt after too many consecutive infeasible draws, which
		// happens only near the end of a doomed pairing.
		const patience = 2000
		paired := false
		for try := 0; try < patience; try++ {
			i := r.Intn(len(live))
			j := r.Intn(len(live))
			u, v := live[i], live[j]
			if u == v || adjacent(u, v) {
				continue
			}
			// Remove the two half-edges (higher index first so the
			// first removal cannot move the second entry).
			if i < j {
				i, j = j, i
			}
			remove(i)
			remove(j)
			id := uint32(len(edges))
			halves[off[u]+fill[u]] = graph.Half{ID: id, To: uint32(v)}
			fill[u]++
			halves[off[v]+fill[v]] = graph.Half{ID: id, To: uint32(u)}
			fill[v]++
			edges = append(edges, graph.Edge{U: int(u), V: int(v)})
			paired = true
			break
		}
		if !paired {
			return nil
		}
	}
	if !slabConnected(halves, off, live[:0], fill) {
		return nil
	}
	g, err := graph.NewFrozen(n, edges, off, halves)
	if err != nil {
		panic(err)
	}
	return g
}

// slabConnected reports whether the CSR graph (halves, off) is
// connected, by a breadth-first search from vertex 0 — the decision
// Graph.IsConnected makes. It reuses the caller's buffers: queue as the
// BFS queue and mark, one entry per vertex, as the visited flags (it
// overwrites both).
func slabConnected(halves []graph.Half, off, queue, mark []int32) bool {
	n := len(off) - 1
	for v := range mark {
		mark[v] = 0
	}
	queue = append(queue[:0], 0)
	mark[0] = 1
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, h := range halves[off[v]:off[v+1]] {
			if mark[h.To] == 0 {
				mark[h.To] = 1
				queue = append(queue, int32(h.To))
			}
		}
	}
	return len(queue) == n
}

// checkDegreeSequence validates a degree sequence for the connected
// simple generators and returns its sum. A degree-0 vertex is rejected
// when n > 1: it is isolated in every realisation, so no attempt could
// ever be connected.
func checkDegreeSequence(degrees []int) (int, error) {
	n := len(degrees)
	if n == 0 {
		return 0, fmt.Errorf("%w: empty sequence", ErrDegreeSequence)
	}
	total := 0
	for v, d := range degrees {
		if d < 0 || d >= n {
			return 0, fmt.Errorf("%w: degree %d at vertex %d", ErrDegreeSequence, d, v)
		}
		if d == 0 && n > 1 {
			return 0, fmt.Errorf("%w: vertex %d has degree 0, so no graph on %d vertices is connected", ErrDegreeSequence, v, n)
		}
		total += d
	}
	if total%2 != 0 {
		return 0, fmt.Errorf("%w: odd degree sum %d", ErrDegreeSequence, total)
	}
	return total, nil
}

func checkRegular(n, deg int) error {
	if n <= 0 || deg <= 0 {
		return fmt.Errorf("%w: n=%d, r=%d must be positive", ErrDegreeSequence, n, deg)
	}
	if deg >= n {
		return fmt.Errorf("%w: r=%d must be < n=%d for a simple graph", ErrDegreeSequence, deg, n)
	}
	if n*deg%2 != 0 {
		return fmt.Errorf("%w: n·r = %d·%d is odd", ErrDegreeSequence, n, deg)
	}
	return nil
}

// RandomDegreeSequenceSW returns a random simple connected graph with
// the given degree sequence using the Steger–Wormald-style incremental
// pairing of RandomRegularSW generalised to non-uniform stubs. For
// heterogeneous sequences the whole-configuration rejection of
// RandomDegreeSequence has exponentially small acceptance (e.g. ~1e−4
// for a 4/6/8 mixture), while incremental pairing accepts almost
// always; prefer this constructor for experiments.
func RandomDegreeSequenceSW(r *rand.Rand, degrees []int) (*graph.Graph, error) {
	n := len(degrees)
	total, err := checkDegreeSequence(degrees)
	if err != nil {
		return nil, err
	}
	const maxRestarts = 1000
	for attempt := 0; attempt < maxRestarts; attempt++ {
		if g := swAttempt(r, degrees, total); g != nil {
			return g, nil
		}
	}
	return nil, fmt.Errorf("gen: degree-sequence SW failed after retries (n=%d)", n)
}

// RandomDegreeSequence returns a random simple connected graph with the
// given degree sequence, via the configuration model with rejection.
// This realises the paper's "fixed degree sequence random graphs, with
// all vertex degrees d(v) ≥ 4, even and finite" family. The
// distribution is exactly uniform conditioned on acceptance, but the
// acceptance probability decays fast with degree spread — see
// RandomDegreeSequenceSW for the scalable variant.
func RandomDegreeSequence(r *rand.Rand, degrees []int) (*graph.Graph, error) {
	n := len(degrees)
	total, err := checkDegreeSequence(degrees)
	if err != nil {
		return nil, err
	}
	if g := configurationModel(r, degrees, total, 20000); g != nil {
		return g, nil
	}
	return nil, fmt.Errorf("gen: degree-sequence model failed after retries (n=%d)", n)
}

// configurationModel runs up to maxAttempts rounds of the configuration
// model on the given degree sequence (total = its sum): pair up the
// half-edge points uniformly, and reject the round on a loop, a
// parallel edge or a disconnected result. It returns the first accepted
// graph, or nil when every round was rejected.
func configurationModel(r *rand.Rand, degrees []int, total, maxAttempts int) *graph.Graph {
	n := len(degrees)
	points := make([]int, 0, total)
	edges := make([]graph.Edge, 0, total/2)
attempts:
	for attempt := 0; attempt < maxAttempts; attempt++ {
		points = points[:0]
		for v, d := range degrees {
			for i := 0; i < d; i++ {
				points = append(points, v)
			}
		}
		r.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
		edges = edges[:0]
		seen := make(map[[2]int]bool, total/2)
		for i := 0; i < len(points); i += 2 {
			u, v := points[i], points[i+1]
			key := [2]int{min(u, v), max(u, v)}
			if u == v || seen[key] {
				continue attempts
			}
			seen[key] = true
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		g, err := graph.NewFromEdges(n, edges)
		if err != nil {
			panic(err)
		}
		if g.IsConnected() {
			return g
		}
	}
	return nil
}
