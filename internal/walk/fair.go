package walk

import (
	"repro/internal/graph"
)

// LeastUsedFirst is the locally fair exploration strategy of Cooper,
// Ilcinkas, Klasing and Kosowski: at each step traverse the incident
// edge crossed the fewest times so far (ties broken uniformly at
// random). It covers all edges in O(mD) steps and equalises edge
// frequencies in the long run.
type LeastUsedFirst struct {
	g      *graph.Graph
	ri     Intner
	halves []graph.Half // graph CSR adjacency
	off    []int32
	used   []int64 // per-edge traversal counts
	cur    int
}

var _ Process = (*LeastUsedFirst)(nil)

// NewLeastUsedFirst returns a least-used-first walk starting at start.
func NewLeastUsedFirst(g *graph.Graph, r Intner, start int) *LeastUsedFirst {
	l := &LeastUsedFirst{g: g, ri: r, halves: g.Halves(), off: g.Offsets()}
	l.Reset(start)
	return l
}

// Graph implements Process.
func (l *LeastUsedFirst) Graph() *graph.Graph { return l.g }

// Current implements Process.
func (l *LeastUsedFirst) Current() int { return l.cur }

// Step implements Process.
func (l *LeastUsedFirst) Step() (int, int) {
	adj := l.halves[l.off[l.cur]:l.off[l.cur+1]]
	best := adj[0]
	bestUsed := l.used[best.ID]
	ties := 1
	for _, h := range adj[1:] {
		switch u := l.used[h.ID]; {
		case u < bestUsed:
			best, bestUsed, ties = h, u, 1
		case u == bestUsed:
			ties++
			if l.ri.Intn(ties) == 0 {
				best = h
			}
		}
	}
	l.used[best.ID]++
	l.cur = int(best.To)
	return int(best.ID), l.cur
}

// Reset implements Process.
func (l *LeastUsedFirst) Reset(start int) {
	l.cur = start
	l.used = reuse(l.used, l.g.M())
}

// OldestFirst is the companion strategy: traverse the incident edge
// that has waited longest since its last traversal (never-traversed
// edges are oldest, ties broken uniformly). Cooper et al. show this
// rule can be exponentially slow on some graphs, a contrast the
// comparison bench exercises.
type OldestFirst struct {
	g      *graph.Graph
	ri     Intner
	halves []graph.Half // graph CSR adjacency
	off    []int32
	last   []int64 // step of most recent traversal; 0 = never
	step   int64
	cur    int
}

var _ Process = (*OldestFirst)(nil)

// NewOldestFirst returns an oldest-first walk starting at start.
func NewOldestFirst(g *graph.Graph, r Intner, start int) *OldestFirst {
	o := &OldestFirst{g: g, ri: r, halves: g.Halves(), off: g.Offsets()}
	o.Reset(start)
	return o
}

// Graph implements Process.
func (o *OldestFirst) Graph() *graph.Graph { return o.g }

// Current implements Process.
func (o *OldestFirst) Current() int { return o.cur }

// Step implements Process.
func (o *OldestFirst) Step() (int, int) {
	adj := o.halves[o.off[o.cur]:o.off[o.cur+1]]
	best := adj[0]
	bestLast := o.last[best.ID]
	ties := 1
	for _, h := range adj[1:] {
		switch lt := o.last[h.ID]; {
		case lt < bestLast:
			best, bestLast, ties = h, lt, 1
		case lt == bestLast:
			ties++
			if o.ri.Intn(ties) == 0 {
				best = h
			}
		}
	}
	o.step++
	o.last[best.ID] = o.step
	o.cur = int(best.To)
	return int(best.ID), o.cur
}

// Reset implements Process.
func (o *OldestFirst) Reset(start int) {
	o.cur = start
	o.last = reuse(o.last, o.g.M())
	o.step = 0
}
