package walk

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Simple is the simple random walk: from vertex v, cross a uniformly
// random incident half-edge. On multigraphs this is the correct
// semantics — parallel edges double the transition probability and a
// loop at v is chosen with probability 2·loops/d(v), matching the
// transition matrix used throughout the paper's Section 2.
type Simple struct {
	g      *graph.Graph
	ri     Intner
	halves []graph.Half // graph CSR adjacency
	off    []int32
	cur    int
	// Laziness: stay put with probability 1/2 (the paper's lazy walk,
	// Section 2.1). Lazy stays are reported with edge ID −1 since no
	// edge is traversed.
	lazy bool
}

var _ Process = (*Simple)(nil)

// NewSimple returns a simple random walk on g starting at start.
func NewSimple(g *graph.Graph, r Intner, start int) *Simple {
	s := &Simple{g: g, ri: r, halves: g.Halves(), off: g.Offsets()}
	s.Reset(start)
	return s
}

// NewLazy returns a lazy simple random walk: with probability 1/2 stay,
// otherwise step as the simple walk. Lazy stays report edge ID −1.
// The paper makes walks lazy whenever λmax ≠ λ2 (Section 2.1).
func NewLazy(g *graph.Graph, r Intner, start int) *Simple {
	s := NewSimple(g, r, start)
	s.lazy = true
	return s
}

// Graph implements Process.
func (s *Simple) Graph() *graph.Graph { return s.g }

// Current implements Process.
func (s *Simple) Current() int { return s.cur }

// Step implements Process. A lazy stay returns (-1, current).
func (s *Simple) Step() (int, int) {
	if s.lazy && s.ri.Intn(2) == 0 {
		return -1, s.cur
	}
	adj := s.halves[s.off[s.cur]:s.off[s.cur+1]]
	h := adj[s.ri.Intn(len(adj))]
	s.cur = int(h.To)
	return int(h.ID), s.cur
}

// Reset implements Process.
func (s *Simple) Reset(start int) { s.cur = start }

// Weighted is a reversible weighted random walk: from x it moves to a
// neighbour y with probability w(x,y) / Σ_z w(x,z) (paper Section 2.2).
// This is the process class for which Radzik's Theorem 5 lower bound
// holds; the simple walk is the all-ones special case.
type Weighted struct {
	g       *graph.Graph
	r       *rand.Rand
	weights []float64 // by edge ID, must be positive
	total   []float64 // per-vertex total incident weight (loops doubled)
	cur     int
}

var _ Process = (*Weighted)(nil)

// NewWeighted returns a weighted walk on g with the given positive
// per-edge weights.
func NewWeighted(g *graph.Graph, r *rand.Rand, weights []float64, start int) (*Weighted, error) {
	if len(weights) != g.M() {
		return nil, errWeightsLen(len(weights), g.M())
	}
	w := &Weighted{g: g, r: r, weights: weights, cur: start}
	w.total = make([]float64, g.N())
	for v := 0; v < g.N(); v++ {
		for _, h := range g.Adj(v) {
			if weights[h.ID] <= 0 {
				return nil, errWeightValue(int(h.ID), weights[h.ID])
			}
			w.total[v] += weights[h.ID]
		}
	}
	return w, nil
}

// Graph implements Process.
func (w *Weighted) Graph() *graph.Graph { return w.g }

// Current implements Process.
func (w *Weighted) Current() int { return w.cur }

// Step implements Process.
func (w *Weighted) Step() (int, int) {
	target := w.r.Float64() * w.total[w.cur]
	adj := w.g.Adj(w.cur)
	acc := 0.0
	chosen := adj[len(adj)-1] // guard against float round-off
	for _, h := range adj {
		acc += w.weights[h.ID]
		if target < acc {
			chosen = h
			break
		}
	}
	w.cur = int(chosen.To)
	return int(chosen.ID), w.cur
}

// Reset implements Process.
func (w *Weighted) Reset(start int) { w.cur = start }

func errWeightsLen(got, want int) error {
	return fmt.Errorf("walk: %d weights for %d edges", got, want)
}

func errWeightValue(id int, w float64) error {
	return fmt.Errorf("walk: weight of edge %d is %v, must be positive", id, w)
}
