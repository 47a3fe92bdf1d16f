package walk

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// dynRing returns the 2-regular ring on n vertices.
func dynRing(n int) *graph.Graph {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{U: i, V: (i + 1) % n}
	}
	g := graph.MustFromEdges(n, edges)
	return g
}

// On a ring, an overlay with nothing removed must give the same
// trajectory (same draws from the same generator) as the static fast
// path on the base graph: both consume one Intn per step, and with at
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

// removeAtRate returns a seeded remove-only churn hook: before each
// step it removes a uniformly random live edge with probability rate,
// keeping at least one live edge, as the sim layer's frozen schedule
// does.
func removeAtRate(rate float64, seed int64) func(o *graph.Overlay) func() {
	return func(o *graph.Overlay) func() {
		churn := rand.New(rand.NewSource(seed))
		return func() {
			if churn.Float64() < rate && o.LiveEdges() > 1 {
				if err := o.RemoveEdge(o.LiveEdgeAt(churn.Intn(o.LiveEdges()))); err != nil {
					panic(err)
				}
			}
		}
	}
}

// VertexCoverCensored: budget exhaustion on a disconnected topology is
// a censored outcome, not an error, and the hook fires before every
// step it runs (the injection point for churn). A run whose hook is
// declared remove-only may stop once its outcome is settled; it must
// report exactly what the same hook driven over the whole budget
// reports (declared able to restore edges, so the run cannot stop
// early), and it must stop early once the walker is stranded. A hook
// that may restore edges always runs to cover or budget.
func TestVertexCoverCensored(t *testing.T) {
	severed := func() *graph.Overlay {
		o := graph.NewOverlay(dynRing(8))
		// Cut vertex 4 off entirely: {3,4} is edge 3, {4,5} is edge 4.
		for _, id := range []int{3, 4} {
			if err := o.RemoveEdge(id); err != nil {
				t.Fatal(err)
			}
		}
		return o
	}
	noop := func(*graph.Overlay) func() { return func() {} }
	type tcase struct {
		name       string
		overlay    func() *graph.Overlay
		hook       func(o *graph.Overlay) func() // nil: no hook
		removeOnly bool
		budget     int64
		seed       uint64
		want       *CoverOutcome // pinned outcome, when non-nil
		covers     bool          // the run must cover before its budget
	}
	cases := []tcase{
		{"severed-ring/remove-only", severed, noop, true, 300, 17, &CoverOutcome{Steps: 300, Uncovered: 1}, false},
		{"severed-ring/restoring", severed, noop, false, 300, 17, &CoverOutcome{Steps: 300, Uncovered: 1}, false},
		// With the ring intact the same driver reports full cover with
		// Uncovered == 0 and strictly fewer steps than the budget.
		{"intact-ring", func() *graph.Overlay { return graph.NewOverlay(dynRing(8)) }, nil, true, 10_000, 17, nil, true},
		// Churn that severs and restores: it must run to cover or budget
		// without panicking and leave a consistent overlay.
		{"ring/sever-and-restore", func() *graph.Overlay { return graph.NewOverlay(dynRing(8)) }, func(o *graph.Overlay) func() {
			churn := rand.New(rand.NewSource(29))
			step := 0
			return func() {
				step++
				if step%7 == 0 && o.LiveEdges() > 1 {
					if err := o.RemoveEdge(o.LiveEdgeAt(churn.Intn(o.LiveEdges()))); err != nil {
						panic(err)
					}
				}
				if step%11 == 0 && o.RemovedEdges() > 0 {
					if err := o.RestoreEdge(o.RemovedEdgeAt(churn.Intn(o.RemovedEdges()))); err != nil {
						panic(err)
					}
				}
			}
		}, false, 5_000, 23, nil, false},
	}
	// Remove-only churn on a 4-regular graph, and on a ring, where a
	// walker turned back by a removed edge red-walks its visited arc for
	// far longer than n steps before it reaches the other frontier: an
	// exit taken while unvisited vertices are still reachable would
	// report a different outcome.
	for _, base := range []*graph.Graph{mustRegular(t, newRand(41), 64, 4), dynRing(32)} {
		for _, rate := range []float64{0, 0.01, 0.02, 0.05, 0.1, 0.25} {
			for seed := int64(1); seed <= 6; seed++ {
				cases = append(cases, tcase{
					name:       fmt.Sprintf("n=%d,m=%d/rate=%g/seed=%d", base.N(), base.M(), rate, seed),
					overlay:    func() *graph.Overlay { return graph.NewOverlay(base) },
					hook:       removeAtRate(rate, seed),
					removeOnly: true,
					budget:     256 * int64(base.N()),
					seed:       uint64(100 + seed),
					// With no churn the graph stays connected.
					covers: rate == 0,
				})
			}
		}
	}
	var sc CoverScratch
	stopped := 0
	for _, c := range cases {
		run := func(removeOnly bool) (CoverOutcome, int64, *graph.Overlay) {
			o := c.overlay()
			e := NewEProcessOn(o, rng.NewXoshiro256(c.seed), nil, 0)
			var calls int64
			var hook func()
			if c.hook != nil {
				h := c.hook(o)
				hook = func() { calls++; h() }
			}
			return sc.VertexCoverCensored(e, c.budget, hook, removeOnly), calls, o
		}
		got, gotCalls, o := run(c.removeOnly)
		want, wantCalls, _ := run(false)
		if got != want {
			t.Fatalf("%s: %+v, driven over the whole budget %+v", c.name, got, want)
		}
		if c.want != nil && want != *c.want {
			t.Fatalf("%s: %+v, want %+v", c.name, want, *c.want)
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("%s: overlay invalid after the run: %v", c.name, err)
		}
		if want.Steps <= 0 || want.Steps > c.budget || want.Uncovered > 0 && want.Steps != c.budget {
			t.Fatalf("%s: outcome %+v is neither a cover nor a censored run of budget %d", c.name, want, c.budget)
		}
		if c.covers && (want.Uncovered != 0 || want.Steps >= c.budget) {
			t.Fatalf("%s: connected graph gave %+v, want a cover in fewer than %d steps", c.name, want, c.budget)
		}
		if c.hook != nil && wantCalls != want.Steps {
			t.Fatalf("%s: hook fired %d times over %d steps", c.name, wantCalls, want.Steps)
		}
		switch {
		case c.hook == nil:
		case c.removeOnly && want.Uncovered > 0:
			// Censored under a remove-only hook: the walker was
			// stranded, so the run must have stopped before the budget.
			if gotCalls >= c.budget {
				t.Errorf("%s: stranded run called its hook %d times, want fewer than the budget %d", c.name, gotCalls, c.budget)
			}
			stopped++
		default:
			if gotCalls != got.Steps {
				t.Errorf("%s: hook fired %d times over %d steps", c.name, gotCalls, got.Steps)
			}
		}
	}
	if stopped < 2 {
		t.Fatalf("only %d remove-only runs were censored; the table does not exercise the settled exit", stopped)
	}
}
