package graph

import (
	"math/rand"
	"testing"
)

// overlayBase builds a small multigraph exercising loops and
// parallel edges: 6 vertices, edges 0:{0,1} 1:{1,2} 2:{2,3} 3:{3,0}
// 4:{0,2} 5:{1,1} (loop) 6:{0,1} (parallel).
func overlayBase(t testing.TB) *Graph {
	t.Helper()
	return MustFromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 1}, {0, 1}})
}

func TestOverlayStartsIdenticalToBase(t *testing.T) {
	g := overlayBase(t)
	o := NewOverlay(g)
	if o.Base() != g || o.LiveEdges() != g.M() || o.RemovedEdges() != 0 {
		t.Fatalf("fresh overlay state: live=%d removed=%d", o.LiveEdges(), o.RemovedEdges())
	}
	for id := 0; id < g.M(); id++ {
		if o.EdgeRemoved(id) || o.LiveEdgeAt(id) != id {
			t.Fatalf("edge %d: removed=%v, LiveEdgeAt=%d", id, o.EdgeRemoved(id), o.LiveEdgeAt(id))
		}
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOverlayRemoveRestore(t *testing.T) {
	g := overlayBase(t)
	halves, off := g.Halves(), g.Offsets()
	o := NewOverlay(g)

	// Remove the loop (ID 5).
	if err := o.RemoveEdge(5); err != nil {
		t.Fatal(err)
	}
	if !o.EdgeRemoved(5) || o.LiveEdges() != g.M()-1 || o.RemovedEdges() != 1 || o.RemovedEdgeAt(0) != 5 {
		t.Fatalf("after removing 5: removed=%v live=%d dead=%d", o.EdgeRemoved(5), o.LiveEdges(), o.RemovedEdges())
	}
	if err := o.RemoveEdge(5); err == nil {
		t.Fatal("double remove accepted")
	}
	if err := o.RestoreEdge(0); err == nil {
		t.Fatal("restore of a live edge accepted")
	}
	for _, id := range []int{-1, g.M()} {
		if err := o.RemoveEdge(id); err == nil {
			t.Fatalf("out-of-range remove %d accepted", id)
		}
		if err := o.RestoreEdge(id); err == nil {
			t.Fatalf("out-of-range restore %d accepted", id)
		}
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}

	// Restore brings the edge back with its identity.
	if err := o.RestoreEdge(5); err != nil {
		t.Fatal(err)
	}
	if o.EdgeRemoved(5) || o.LiveEdges() != g.M() || o.RemovedEdges() != 0 {
		t.Fatalf("after restore: removed=%v live=%d dead=%d", o.EdgeRemoved(5), o.LiveEdges(), o.RemovedEdges())
	}
	if err := o.RestoreEdge(5); err == nil {
		t.Fatal("double restore accepted")
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}

	// The shared base graph was never written.
	if g.M() != 7 || &g.Halves()[0] != &halves[0] || &g.Offsets()[0] != &off[0] {
		t.Fatal("base mutated through overlay")
	}
}

// Property test: a random remove/restore sequence, attempted errors
// included, keeps the overlay in step with a reference mask — the
// live/dead partition matches it exactly, a rejected call changes
// nothing, and two overlays fed the same sequence enumerate their live
// and removed edges in the same order.
func TestOverlayRandomChurnAgainstReference(t *testing.T) {
	g := overlayBase(t)
	o, twin := NewOverlay(g), NewOverlay(g)
	ref := make([]bool, g.M())
	r := rand.New(rand.NewSource(7))
	for step := 0; step < 600; step++ {
		var id int
		switch r.Intn(3) {
		case 0:
			if o.LiveEdges() == 0 {
				continue
			}
			id = o.LiveEdgeAt(r.Intn(o.LiveEdges()))
		case 1:
			if o.RemovedEdges() == 0 {
				continue
			}
			id = o.RemovedEdgeAt(r.Intn(o.RemovedEdges()))
		default:
			id = r.Intn(g.M()) // either state: one of the calls below must fail
		}
		remove := r.Intn(2) == 0
		op := o.RestoreEdge
		twinOp := twin.RestoreEdge
		if remove {
			op, twinOp = o.RemoveEdge, twin.RemoveEdge
		}
		err := op(id)
		if wantErr := ref[id] == remove; (err != nil) != wantErr {
			t.Fatalf("step %d: remove=%v edge %d (removed=%v): err %v", step, remove, id, ref[id], err)
		}
		if (twinOp(id) != nil) != (err != nil) {
			t.Fatalf("step %d: twin overlay disagrees on edge %d", step, id)
		}
		if err == nil {
			ref[id] = remove
		}

		dead := 0
		for id, gone := range ref {
			if o.EdgeRemoved(id) != gone {
				t.Fatalf("step %d: edge %d removed=%v, reference %v", step, id, o.EdgeRemoved(id), gone)
			}
			if gone {
				dead++
			}
		}
		if o.LiveEdges() != g.M()-dead || o.RemovedEdges() != dead {
			t.Fatalf("step %d: %d live / %d removed, reference %d / %d", step, o.LiveEdges(), o.RemovedEdges(), g.M()-dead, dead)
		}
		seen := make([]int, g.M())
		for i := 0; i < o.LiveEdges(); i++ {
			id := o.LiveEdgeAt(i)
			if ref[id] || id != twin.LiveEdgeAt(i) {
				t.Fatalf("step %d: LiveEdgeAt(%d) = %d (removed=%v, twin %d)", step, i, id, ref[id], twin.LiveEdgeAt(i))
			}
			seen[id]++
		}
		for i := 0; i < o.RemovedEdges(); i++ {
			id := o.RemovedEdgeAt(i)
			if !ref[id] || id != twin.RemovedEdgeAt(i) {
				t.Fatalf("step %d: RemovedEdgeAt(%d) = %d (removed=%v, twin %d)", step, i, id, ref[id], twin.RemovedEdgeAt(i))
			}
			seen[id]++
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("step %d: edge %d enumerated %d times", step, id, c)
			}
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if g.M() != 7 {
		t.Fatal("base mutated during churn")
	}
}
