package walk

import (
	"repro/internal/graph"
)

// Choice is Avin & Krishnamachari's random walk with choice RWC(d):
// at each step sample d incident half-edges uniformly at random (with
// replacement) and move to the endpoint that has been visited the
// fewest times, breaking ties uniformly among the sampled minima.
// RWC(1) is the simple random walk.
type Choice struct {
	g      *graph.Graph
	ri     Intner
	halves []graph.Half // graph CSR adjacency
	off    []int32
	d      int
	visits []int64 // per-vertex visit counts, start vertex counts once
	cur    int
}

var _ Process = (*Choice)(nil)

// NewChoice returns an RWC(d) walk on g starting at start. d must be
// at least 1.
func NewChoice(g *graph.Graph, r Intner, d, start int) *Choice {
	if d < 1 {
		d = 1
	}
	c := &Choice{g: g, ri: r, halves: g.Halves(), off: g.Offsets(), d: d}
	c.Reset(start)
	return c
}

// Graph implements Process.
func (c *Choice) Graph() *graph.Graph { return c.g }

// Current implements Process.
func (c *Choice) Current() int { return c.cur }

// Visits returns the number of times v has been occupied (the start
// vertex counts once at time 0).
func (c *Choice) Visits(v int) int64 { return c.visits[v] }

// Step implements Process.
func (c *Choice) Step() (int, int) {
	adj := c.halves[c.off[c.cur]:c.off[c.cur+1]]
	best := adj[c.ri.Intn(len(adj))]
	bestVisits := c.visits[best.To]
	ties := 1
	for i := 1; i < c.d; i++ {
		h := adj[c.ri.Intn(len(adj))]
		switch vc := c.visits[h.To]; {
		case vc < bestVisits:
			best, bestVisits, ties = h, vc, 1
		case vc == bestVisits:
			// Reservoir-style uniform tie break among sampled minima.
			ties++
			if c.ri.Intn(ties) == 0 {
				best = h
			}
		}
	}
	c.cur = int(best.To)
	c.visits[c.cur]++
	return int(best.ID), c.cur
}

// Reset implements Process. It reuses the visit counters (no
// allocation after the first Reset).
func (c *Choice) Reset(start int) {
	c.cur = start
	c.visits = reuse(c.visits, c.g.N())
	c.visits[start] = 1
}
