package sim

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// ChurnSchedule drives per-step topology churn for the dynamic-graph
// experiments. Each call to Step flips (at most) two coins on the
// caller's generator: with probability Fail a uniformly random live
// edge is removed, then — unless Freeze is set — with probability
// Repair a uniformly random removed edge is restored.
//
// The schedule is deliberately stateless: every draw comes from the
// generator the caller passes in, which in a sweep is the arm's private
// deriveSeed stream. The entire churn history is therefore a pure
// function of (master seed, point salt, trial), so checkpointed units
// replay identically on resume and shard merges agree byte-for-byte —
// the same property the audited seed contract gives every other arm.
// For the same reason a schedule must never cache edge IDs or other
// topology state between steps.
type ChurnSchedule struct {
	// Fail is the per-step probability of removing one live edge.
	Fail float64
	// Repair is the per-step probability of restoring one removed edge.
	// Ignored when Freeze is set.
	Repair float64
	// Freeze makes failures permanent: percolation with constant
	// freezing. Removed edges stay removed for the rest of the run.
	Freeze bool
}

// removesOnly reports whether the schedule can only remove edges: it
// freezes failures, or it never repairs.
func (c ChurnSchedule) removesOnly() bool { return c.Freeze || c.Repair == 0 }

// Step applies one step of churn to o using r. The coin draws happen
// unconditionally in a fixed order (fail coin, then repair coin unless
// frozen), so the generator stream consumed per step has a fixed shape
// regardless of what the coins decide — churn histories across
// different overlays with the same seed stay aligned.
//
// A removal is skipped (coin still consumed) when it would leave the
// overlay with fewer than two live edges: a walk needs somewhere to
// stand, and degenerate empty topologies measure nothing.
func (c ChurnSchedule) Step(o *graph.Overlay, r *rng.Rand) {
	if r.Float64() < c.Fail && o.LiveEdges() > 1 {
		id := o.LiveEdgeAt(r.Intn(o.LiveEdges()))
		if err := o.RemoveEdge(id); err != nil {
			panic("sim: churn removal of a live edge failed: " + err.Error())
		}
	}
	if c.Freeze {
		return
	}
	if r.Float64() < c.Repair && o.RemovedEdges() > 0 {
		id := o.RemovedEdgeAt(r.Intn(o.RemovedEdges()))
		if err := o.RestoreEdge(id); err != nil {
			panic("sim: churn restore of a removed edge failed: " + err.Error())
		}
	}
}
