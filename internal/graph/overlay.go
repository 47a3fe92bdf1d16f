package graph

import (
	"fmt"

	"repro/internal/bits"
)

// Overlay is a removal mask over a base graph, so edges can fail and
// be repaired *during* a walk without copying the base CSR. The edge set is the base's, fixed: edge IDs are the base's CSR
// IDs [0, base.M()), never renumbered, and removing an edge only marks
// it until RestoreEdge clears the mark. The base graph is never written
// — one instance can back any number of overlays concurrently, which is
// exactly the sweep runner's shared-graph contract (one graph per
// trial, read-only across arms). A vertex's live adjacency is
// its base CSR block, in CSR order, with the removed halves skipped.
//
// An Overlay is not safe for concurrent use.
type Overlay struct {
	base *Graph

	// removed is the removed-edge mask, indexed by edge ID.
	removed bits.Set

	// live/dead partition the edge-ID space for O(1) uniform sampling:
	// live lists every live edge ID, dead every removed one, and
	// pos[id] is the ID's index within whichever list holds it.
	live []uint32
	dead []uint32
	pos  []int32
}

// NewOverlay returns a removal mask over g. The overlay starts with
// every edge live.
func NewOverlay(g *Graph) *Overlay {
	m := g.M()
	o := &Overlay{
		base: g,
		live: make([]uint32, m),
		pos:  make([]int32, m),
	}
	o.removed.Reset(m)
	for id := 0; id < m; id++ {
		o.live[id] = uint32(id)
		o.pos[id] = int32(id)
	}
	return o
}

// Base returns the graph the overlay masks.
func (o *Overlay) Base() *Graph { return o.base }

// EdgeRemoved reports whether edge id is currently removed.
func (o *Overlay) EdgeRemoved(id int) bool { return o.removed.Test(id) }

// LiveEdges returns the number of live edges.
func (o *Overlay) LiveEdges() int { return len(o.live) }

// LiveEdgeAt returns the i-th live edge ID, 0 ≤ i < LiveEdges(). The
// enumeration order is unspecified (it permutes under mutation) but
// deterministic, so uniform sampling via LiveEdgeAt(r.Intn(LiveEdges()))
// is reproducible.
func (o *Overlay) LiveEdgeAt(i int) int { return int(o.live[i]) }

// RemovedEdges returns the number of removed edges.
func (o *Overlay) RemovedEdges() int { return len(o.dead) }

// RemovedEdgeAt returns the i-th removed edge ID, 0 ≤ i < RemovedEdges().
func (o *Overlay) RemovedEdgeAt(i int) int { return int(o.dead[i]) }

// checkID rejects an edge ID outside the base's ID space.
func (o *Overlay) checkID(op string, id int) error {
	if id < 0 || id >= o.base.M() {
		return fmt.Errorf("graph: %s(%d): ID out of range [0, %d)", op, id, o.base.M())
	}
	return nil
}

// RemoveEdge retires live edge id: it vanishes from every live
// adjacency until RestoreEdge revives it. O(1). Removing an edge that
// is already removed (or out of range) is an error.
func (o *Overlay) RemoveEdge(id int) error {
	if err := o.checkID("RemoveEdge", id); err != nil {
		return err
	}
	if o.removed.Test(id) {
		return fmt.Errorf("graph: RemoveEdge(%d): already removed", id)
	}
	o.removed.Set(id)
	o.live = o.drop(id, o.live)
	o.dead = o.push(id, o.dead)
	return nil
}

// RestoreEdge revives removed edge id with its original identity. O(1).
func (o *Overlay) RestoreEdge(id int) error {
	if err := o.checkID("RestoreEdge", id); err != nil {
		return err
	}
	if !o.removed.Test(id) {
		return fmt.Errorf("graph: RestoreEdge(%d): not removed", id)
	}
	o.removed.Clear(id)
	o.dead = o.drop(id, o.dead)
	o.live = o.push(id, o.live)
	return nil
}

// drop swap-removes id from list, which holds it at pos[id].
func (o *Overlay) drop(id int, list []uint32) []uint32 {
	i := o.pos[id]
	last := list[len(list)-1]
	list[i] = last
	o.pos[last] = i
	return list[:len(list)-1]
}

// push appends id to list and records its position.
func (o *Overlay) push(id int, list []uint32) []uint32 {
	o.pos[id] = int32(len(list))
	return append(list, uint32(id))
}

// Validate checks that the live and dead lists partition the edge-ID
// space in agreement with the removed mask and the position index.
func (o *Overlay) Validate() error {
	m := o.base.M()
	if len(o.live)+len(o.dead) != m {
		return fmt.Errorf("graph: overlay live %d + dead %d != m %d", len(o.live), len(o.dead), m)
	}
	for i, id := range o.live {
		if o.removed.Test(int(id)) || o.pos[id] != int32(i) {
			return fmt.Errorf("graph: overlay live list inconsistent at %d (edge %d)", i, id)
		}
	}
	for i, id := range o.dead {
		if !o.removed.Test(int(id)) || o.pos[id] != int32(i) {
			return fmt.Errorf("graph: overlay dead list inconsistent at %d (edge %d)", i, id)
		}
	}
	return nil
}
