package walk

import (
	"fmt"

	"repro/internal/graph"
)

// Rotor is the rotor-router (Propp machine): each vertex carries a
// rotor over its incident half-edges in fixed adjacency order; a step
// crosses the rotor's current half-edge and advances the rotor. After
// an initial rotor configuration the process is fully deterministic,
// and its vertex cover time is O(mD) (Yanovski, Wagner, Bruckstein).
// The paper positions the E-process as a hybrid between this machine
// and a random walk.
type Rotor struct {
	g      *graph.Graph
	halves []graph.Half // graph CSR adjacency
	off    []int32
	rotor  []int32 // per-vertex index into Adj(v)
	cur    int

	// r, when non-nil, re-randomises rotor positions on every Reset.
	r Intner
}

var _ Process = (*Rotor)(nil)

// NewRotor returns a rotor-router walk starting at start. If r is
// non-nil the initial rotor positions are randomised; with r == nil
// (including a nil *rand.Rand — the historical signature's idiom) all
// rotors start at adjacency position 0.
func NewRotor(g *graph.Graph, r Intner, start int) *Rotor {
	if isNilIntner(r) {
		r = nil
	}
	ro := &Rotor{g: g, halves: g.Halves(), off: g.Offsets(), r: r}
	ro.Reset(start)
	return ro
}

// Graph implements Process.
func (ro *Rotor) Graph() *graph.Graph { return ro.g }

// Current implements Process.
func (ro *Rotor) Current() int { return ro.cur }

// Step implements Process. It panics when the walk sits on an isolated
// vertex (as the slice indexing of the pre-CSR layout did) — indexing
// the flat halves array with an empty block would otherwise silently
// read a neighbouring vertex's half-edge.
func (ro *Rotor) Step() (int, int) {
	v := ro.cur
	lo, hi := ro.off[v], ro.off[v+1]
	if lo == hi {
		panic(fmt.Sprintf("walk: rotor walk stranded on isolated vertex %d", v))
	}
	h := ro.halves[lo+ro.rotor[v]]
	ro.rotor[v]++
	if ro.rotor[v] >= hi-lo {
		ro.rotor[v] = 0
	}
	ro.cur = int(h.To)
	return int(h.ID), ro.cur
}

// Reset implements Process. It reuses the rotor array (no allocation
// after the first Reset).
func (ro *Rotor) Reset(start int) {
	ro.cur = start
	ro.rotor = reuse(ro.rotor, ro.g.N())
	if ro.r != nil {
		for v := range ro.rotor {
			if d := int(ro.off[v+1] - ro.off[v]); d > 0 {
				ro.rotor[v] = int32(ro.r.Intn(d))
			}
		}
	}
}
