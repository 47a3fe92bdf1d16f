package walk

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// dynRing returns a frozen 2-regular ring on n vertices.
func dynRing(n int) *graph.Graph {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{U: i, V: (i + 1) % n}
	}
	g := graph.MustFromEdges(n, edges)
	g.Freeze()
	return g
}

// On a ring, an overlay with nothing removed must give the same
// trajectory (same draws from the same generator) as the static fast
// path on the frozen base: both consume one Intn per step, and with at
// most two halves per vertex the dynamic path's CSR-order candidates
// and the static arena's swap-with-last arrangement coincide. At higher
// degree the two arrangements differ, so the trajectories agree in law
// only.
func TestDynEProcessZeroDeltaMatchesStatic(t *testing.T) {
	g := dynRing(64)
	o := graph.NewOverlay(g)

	static := NewEProcess(g, rng.NewXoshiro256(99), nil, 0)
	dyn := NewEProcessOn(o, rng.NewXoshiro256(99), nil, 0)
	if dyn.ov == nil {
		t.Fatal("NewEProcessOn did not route to the dynamic path")
	}
	for i := 0; i < 500; i++ {
		se, sv := static.Step()
		de, dv := dyn.Step()
		if se != de || sv != dv {
			t.Fatalf("step %d: static (%d,%d) != dynamic (%d,%d)", i, se, sv, de, dv)
		}
	}
	if static.Stats() != dyn.Stats() {
		t.Fatalf("stats diverged: static %+v dynamic %+v", static.Stats(), dyn.Stats())
	}
}

// Same seed, same churn script => same trajectory: the dynamic walk is
// a pure function of (topology history, generator), with no hidden
// state. This is the property the sim layer's checkpoint/resume
// equivalence relies on.
func TestDynEProcessDeterministic(t *testing.T) {
	run := func() ([]int, Stats) {
		g := dynRing(32)
		o := graph.NewOverlay(g)
		e := NewEProcessOn(o, rng.NewXoshiro256(7), nil, 0)
		churn := rand.New(rand.NewSource(11))
		var trace []int
		for i := 0; i < 400; i++ {
			if i%17 == 3 && o.LiveEdges() > 2 {
				if err := o.RemoveEdge(o.LiveEdgeAt(churn.Intn(o.LiveEdges()))); err != nil {
					panic(err)
				}
			}
			if i%23 == 5 && o.RemovedEdges() > 0 {
				if err := o.RestoreEdge(o.RemovedEdgeAt(churn.Intn(o.RemovedEdges()))); err != nil {
					panic(err)
				}
			}
			_, v := e.Step()
			trace = append(trace, v)
		}
		return trace, e.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged across identical runs: %+v vs %+v", s1, s2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trajectory diverged at step %d: %d vs %d", i, t1[i], t2[i])
		}
	}
}

// Removing an edge mid-walk must make it invisible to the blue choice
// from the next step on, and restoring it must bring it back.
func TestDynEProcessSeesChurn(t *testing.T) {
	// Star with center 0: leaves 1..4. From the center every step is a
	// blue step until all spokes are visited.
	g := graph.MustFromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}})
	g.Freeze()
	o := graph.NewOverlay(g)
	e := NewEProcessOn(o, rng.NewXoshiro256(3), nil, 0)

	// Remove every spoke except edge 2: the only possible blue step from
	// the center is edge 2.
	for _, id := range []int{0, 1, 3} {
		if err := o.RemoveEdge(id); err != nil {
			t.Fatal(err)
		}
	}
	id, v := e.Step()
	if id != 2 || v != 3 {
		t.Fatalf("with one live spoke, Step() = (%d,%d), want (2,3)", id, v)
	}
	// The leaf's only live edge is back to the center, now visited: a
	// red step home.
	id, v = e.Step()
	if id != 2 || v != 0 {
		t.Fatalf("leaf return Step() = (%d,%d), want (2,0)", id, v)
	}
	// Restore spoke 0 (edge {0,1}): it is unvisited, so the next step
	// from the center must be the blue step across it.
	if err := o.RestoreEdge(0); err != nil {
		t.Fatal(err)
	}
	id, v = e.Step()
	if id != 0 || v != 1 {
		t.Fatalf("after restore, Step() = (%d,%d), want (0,1)", id, v)
	}
}

// A vertex stripped of every live edge lazily stays put: Step reports
// edge ID −1 with the position unchanged, counting a red step, and the
// walk resumes when churn reconnects it.
func TestDynEProcessIsolatedLazyStay(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	g.Freeze()
	o := graph.NewOverlay(g)
	e := NewEProcessOn(o, rng.NewXoshiro256(5), nil, 0)

	if err := o.RemoveEdge(0); err != nil {
		t.Fatal(err)
	}
	if err := o.RemoveEdge(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id, v := e.Step()
		if id != -1 || v != 0 {
			t.Fatalf("isolated Step() = (%d,%d), want (-1,0)", id, v)
		}
	}
	if got := e.Stats().RedSteps; got != 3 {
		t.Fatalf("lazy stays counted %d red steps, want 3", got)
	}
	if err := o.RestoreEdge(0); err != nil {
		t.Fatal(err)
	}
	id, v := e.Step()
	if id != 0 || v != 1 {
		t.Fatalf("after reconnect, Step() = (%d,%d), want (0,1)", id, v)
	}
	if e.Stats().BlueSteps != 1 {
		t.Fatalf("reconnect step was not blue: %+v", e.Stats())
	}
}

// VertexCoverCensored: budget exhaustion on a disconnected topology is
// a censored outcome, not an error, and the hook fires before every
// step (the injection point for churn).
func TestVertexCoverCensored(t *testing.T) {
	g := dynRing(8)
	o := graph.NewOverlay(g)
	// Cut vertex 4 off entirely: {3,4} is edge 3, {4,5} is edge 4.
	if err := o.RemoveEdge(3); err != nil {
		t.Fatal(err)
	}
	if err := o.RemoveEdge(4); err != nil {
		t.Fatal(err)
	}
	e := NewEProcessOn(o, rng.NewXoshiro256(17), nil, 0)
	var sc CoverScratch
	var hookCalls int64
	out := sc.VertexCoverCensored(e, 300, func() { hookCalls++ })
	if out.Steps != 300 {
		t.Fatalf("censored run took %d steps, want the full budget 300", out.Steps)
	}
	if out.Uncovered != 1 {
		t.Fatalf("Uncovered = %d, want 1 (the severed vertex)", out.Uncovered)
	}
	if hookCalls != out.Steps {
		t.Fatalf("hook fired %d times over %d steps", hookCalls, out.Steps)
	}

	// With the ring intact the same driver reports full cover with
	// Uncovered == 0 and strictly fewer steps than the budget.
	e2 := NewEProcessOn(graph.NewOverlay(g), rng.NewXoshiro256(17), nil, 0)
	out2 := sc.VertexCoverCensored(e2, 10_000, nil)
	if out2.Uncovered != 0 {
		t.Fatalf("intact ring left %d uncovered", out2.Uncovered)
	}
	if out2.Steps <= 0 || out2.Steps >= 10_000 {
		t.Fatalf("intact cover took %d steps", out2.Steps)
	}

	// A hook that churns mid-run: repeatedly sever and restore one edge.
	// The run must terminate (cover or budget) without panicking and the
	// walk must still be consistent with its topology.
	o3 := graph.NewOverlay(g)
	e3 := NewEProcessOn(o3, rng.NewXoshiro256(23), nil, 0)
	churn := rand.New(rand.NewSource(29))
	step := 0
	out3 := sc.VertexCoverCensored(e3, 5_000, func() {
		step++
		if step%7 == 0 && o3.LiveEdges() > 1 {
			if err := o3.RemoveEdge(o3.LiveEdgeAt(churn.Intn(o3.LiveEdges()))); err != nil {
				panic(err)
			}
		}
		if step%11 == 0 && o3.RemovedEdges() > 0 {
			if err := o3.RestoreEdge(o3.RemovedEdgeAt(churn.Intn(o3.RemovedEdges()))); err != nil {
				panic(err)
			}
		}
	})
	if out3.Steps == 0 {
		t.Fatal("churned run took no steps")
	}
	if err := o3.Validate(); err != nil {
		t.Fatalf("overlay invalid after churned cover run: %v", err)
	}
}
