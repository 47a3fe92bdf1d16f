package sim

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func churnTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, 16)
	for i := 0; i < 8; i++ {
		edges = append(edges, graph.Edge{U: i, V: (i + 1) % 8})
		edges = append(edges, graph.Edge{U: i, V: (i + 2) % 8})
	}
	g := graph.MustFromEdges(8, edges)
	return g
}

// The schedule is a pure function of the generator: the same seed
// applied to two fresh overlays leaves them with identical live and
// removed lists, in the same order. This is the property that lets
// dynamic experiment units replay from their derived seeds on
// checkpoint resume.
func TestChurnScheduleDeterministic(t *testing.T) {
	g := churnTestGraph(t)
	run := func() *graph.Overlay {
		o := graph.NewOverlay(g)
		r := rng.NewRand(rng.NewXoshiro256(42))
		sched := ChurnSchedule{Fail: 0.3, Repair: 0.2}
		for i := 0; i < 500; i++ {
			sched.Step(o, r)
		}
		return o
	}
	o1 := run()
	o2 := run()
	if o1.LiveEdges() != o2.LiveEdges() || o1.RemovedEdges() != o2.RemovedEdges() {
		t.Fatalf("live/removed counts diverged: %d/%d vs %d/%d",
			o1.LiveEdges(), o1.RemovedEdges(), o2.LiveEdges(), o2.RemovedEdges())
	}
	for i := 0; i < o1.LiveEdges(); i++ {
		if o1.LiveEdgeAt(i) != o2.LiveEdgeAt(i) {
			t.Fatalf("live edge %d diverged: %d vs %d", i, o1.LiveEdgeAt(i), o2.LiveEdgeAt(i))
		}
	}
	for i := 0; i < o1.RemovedEdges(); i++ {
		if o1.RemovedEdgeAt(i) != o2.RemovedEdgeAt(i) {
			t.Fatalf("removed edge %d diverged: %d vs %d", i, o1.RemovedEdgeAt(i), o2.RemovedEdgeAt(i))
		}
	}
	if err := o1.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Freeze means permanent: a certain-failure frozen schedule drains the
// overlay down to the one-edge floor and never restores anything.
func TestChurnScheduleFreezeIsPermanent(t *testing.T) {
	g := churnTestGraph(t)
	o := graph.NewOverlay(g)
	r := rng.NewRand(rng.NewXoshiro256(7))
	sched := ChurnSchedule{Fail: 1, Repair: 1, Freeze: true}
	for i := 0; i < 200; i++ {
		sched.Step(o, r)
	}
	if o.LiveEdges() != 1 {
		t.Fatalf("frozen drain left %d live edges, want the floor of 1", o.LiveEdges())
	}
	if o.RemovedEdges() != g.M()-1 {
		t.Fatalf("%d removed edges, want %d", o.RemovedEdges(), g.M()-1)
	}
}

// A pure-repair schedule undoes removals.
func TestChurnScheduleRepairRestores(t *testing.T) {
	g := churnTestGraph(t)
	o := graph.NewOverlay(g)
	for id := 0; id < 5; id++ {
		if err := o.RemoveEdge(id); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.NewRand(rng.NewXoshiro256(9))
	sched := ChurnSchedule{Repair: 1}
	for i := 0; i < 5; i++ {
		sched.Step(o, r)
	}
	if o.RemovedEdges() != 0 || o.LiveEdges() != g.M() {
		t.Fatalf("repair left %d removed / %d live", o.RemovedEdges(), o.LiveEdges())
	}
}

// PCFCOVER at α = 0 is the static E-process: every trial covers within
// budget. At the highest freeze rate the graph fragments under the walk
// and coverage drops below 1 — uncensored full cover at every α would
// mean the churn never bit.
func TestPcfCoverExperiment(t *testing.T) {
	rows, table := runRows[[]PcfCoverRow](t, "pcfcover", ExpConfig{Seed: 1, Trials: 3})
	if table == nil || len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Alpha != 0 {
		t.Fatalf("first row alpha = %g", rows[0].Alpha)
	}
	if rows[0].Uncovered != 0 || rows[0].Censored != 0 {
		t.Fatalf("alpha=0 row censored: %+v", rows[0])
	}
	if rows[0].CoveredFrac != 1 {
		t.Fatalf("alpha=0 covered frac = %g", rows[0].CoveredFrac)
	}
	last := rows[len(rows)-1]
	if last.CoveredFrac > rows[0].CoveredFrac {
		t.Fatalf("coverage rose with freezing: %+v", last)
	}
	for _, r := range rows {
		if r.Steps <= 0 || r.CoveredFrac < 0 || r.CoveredFrac > 1 {
			t.Fatalf("insane row %+v", r)
		}
	}
}

// CHURNCOVER: the static arm always covers (its budget dwarfs static
// cover times), and the p = 0 dynamic arm — identical engine, zero
// churn — must land near it.
func TestChurnCoverExperiment(t *testing.T) {
	rows, table := runRows[[]ChurnCoverRow](t, "churncover", ExpConfig{Seed: 1, Trials: 3})
	if table == nil || len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.StaticSteps <= 0 {
			t.Fatalf("static arm measured %g steps", r.StaticSteps)
		}
		if r.DynSteps <= 0 || r.DynUncovered < 0 {
			t.Fatalf("insane row %+v", r)
		}
	}
	if rows[0].P != 0 {
		t.Fatalf("first row p = %g", rows[0].P)
	}
	if rows[0].DynUncovered != 0 {
		t.Fatalf("p=0 dynamic arm left %g uncovered", rows[0].DynUncovered)
	}
	// Same distribution, independent seeds: means within a loose factor.
	if s := rows[0].Slowdown; s < 0.25 || s > 4 {
		t.Fatalf("p=0 slowdown = %g, want ≈1", s)
	}
}
