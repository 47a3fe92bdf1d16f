package walk

import (
	"repro/internal/bits"
	"repro/internal/graph"
)

// VProcess is the unvisited-vertex-preferring walk the paper's
// introduction motivates ("the idea that the vertex cover time of a
// random walk could be reduced by choosing unvisited neighbour vertices
// whenever possible seems attractive and often arises in discussion",
// studied experimentally in Berenbrink–Cooper–Friedetzky [4]): at each
// step, if any neighbours are unvisited, move to one of them uniformly
// at random; otherwise take a simple-random-walk step.
//
// Unlike the E-process, the VProcess has no parity structure —
// Observation 10 does not apply to it on any graph — so it serves as
// the natural ablation: preferring unvisited *edges* on even-degree
// graphs buys the O(n) guarantee that preferring unvisited *vertices*
// does not.
type VProcess struct {
	g       *graph.Graph
	ri      Intner
	halves  []graph.Half // graph CSR adjacency
	off     []int32
	visited bits.Set // per-vertex
	cur     int
	// scratch buffer for the unvisited-neighbour sample, reused across
	// steps to avoid per-step allocation.
	buf []graph.Half
}

var _ Process = (*VProcess)(nil)

// NewVProcess returns an unvisited-vertex-preferring walk starting at
// start.
func NewVProcess(g *graph.Graph, r Intner, start int) *VProcess {
	v := &VProcess{g: g, ri: r, halves: g.Halves(), off: g.Offsets(), buf: make([]graph.Half, 0, g.MaxDegree())}
	v.Reset(start)
	return v
}

// Graph implements Process.
func (v *VProcess) Graph() *graph.Graph { return v.g }

// Current implements Process.
func (v *VProcess) Current() int { return v.cur }

// Step implements Process.
func (v *VProcess) Step() (int, int) {
	adj := v.halves[v.off[v.cur]:v.off[v.cur+1]]
	v.buf = v.buf[:0]
	for _, h := range adj {
		if !v.visited.Test(int(h.To)) {
			v.buf = append(v.buf, h)
		}
	}
	var chosen graph.Half
	if len(v.buf) > 0 {
		chosen = v.buf[v.ri.Intn(len(v.buf))]
	} else {
		chosen = adj[v.ri.Intn(len(adj))]
	}
	v.cur = int(chosen.To)
	v.visited.Set(v.cur)
	return int(chosen.ID), v.cur
}

// Reset implements Process. It reuses the visited bitset (no
// allocation after the first Reset).
func (v *VProcess) Reset(start int) {
	v.cur = start
	v.visited.Reset(v.g.N())
	v.visited.Set(start)
}
