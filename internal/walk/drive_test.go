package walk

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestDriveFusesOnlyUnobserved: with a nil observer a fresh Uniform
// E-process, an RWC(2) and a simple walk on xoshiro256** take the fused
// loops (the trace hook fires); with an observer they are driven one
// Step at a time and the hook stays silent, in every cover mode.
func TestDriveFusesOnlyUnobserved(t *testing.T) {
	g := mustRegular(t, newRand(8), 60, 4)
	procs := map[string]func() Process{
		"eprocess": func() Process { return NewEProcess(g, rng.NewXoshiro256(1), nil, 0) },
		"choice":   func() Process { return NewChoice(g, rng.NewXoshiro256(1), 2, 0) },
		"simple":   func() Process { return NewSimple(g, rng.NewXoshiro256(1), 0) },
	}
	modes := []struct{ vertices, edges bool }{{true, false}, {false, true}, {true, true}}
	for name, newProc := range procs {
		for _, m := range modes {
			var sc CoverScratch
			fired := 0
			sc.trace = func(int, int) { fired++ }
			if _, _, err := sc.Drive(newProc(), 0, m.vertices, m.edges, nil); err != nil {
				t.Fatalf("%s %+v: %v", name, m, err)
			}
			if want := m.vertices; (fired > 0) != want {
				t.Errorf("%s %+v, nil observer: fused loop taken = %v, want %v", name, m, fired > 0, want)
			}
			fired = 0
			observed := int64(0)
			_, steps, err := sc.Drive(newProc(), 0, m.vertices, m.edges, func(int, int) error {
				observed++
				return nil
			})
			if err != nil {
				t.Fatalf("%s %+v: %v", name, m, err)
			}
			if fired != 0 {
				t.Errorf("%s %+v: observed run took the fused loop", name, m)
			}
			if observed != steps {
				t.Errorf("%s %+v: observer saw %d steps of %d", name, m, observed, steps)
			}
		}
	}
}

// TestDriveObserverError: an observer's error at step k stops the run
// after exactly k steps, comes back unwrapped, and leaves the process
// where a hand-driven twin is after k steps; the cover times hold what
// the k−1 counted steps reached.
func TestDriveObserverError(t *testing.T) {
	g := mustRegular(t, newRand(9), 60, 4)
	stop := errors.New("stop")
	for _, k := range []int64{1, 7, 100} {
		e := NewEProcess(g, rng.NewXoshiro256(2), nil, 0)
		twin := NewEProcess(g, rng.NewXoshiro256(2), nil, 0)
		for i := int64(0); i < k; i++ {
			twin.Step()
		}
		var sc CoverScratch
		var seen int64
		ct, steps, err := sc.Drive(e, 0, true, true, func(int, int) error {
			if seen++; seen == k {
				return stop
			}
			return nil
		})
		if err != stop {
			t.Fatalf("k=%d: error %v, want the observer's own", k, err)
		}
		if steps != k || e.Current() != twin.Current() || e.Stats() != twin.Stats() {
			t.Errorf("k=%d: stopped after %d steps at %d (%+v), want %d steps at %d (%+v)",
				k, steps, e.Current(), e.Stats(), k, twin.Current(), twin.Stats())
		}
		if ct.Vertex >= k || ct.Edge >= k {
			t.Errorf("k=%d: cover times %+v count the stopped step", k, ct)
		}
	}
}

// TestDriveBudget: a run the budget stops wraps ErrStepBudget after
// exactly maxSteps steps, and maxSteps <= 0 is 10000·size·(floor(log2
// size)+1) steps with size n for a vertices-only run and n+m for any
// run that covers edges. The graph has two components, so no walk from
// vertex 0 covers either.
func TestDriveBudget(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	n, m := g.N(), g.M()
	cases := []struct {
		vertices, edges bool
		maxSteps, want  int64
	}{
		{true, false, 25, 25},
		{true, true, 25, 25},
		{true, false, 0, 10000 * int64(n) * 3},
		{false, true, 0, 10000 * int64(n+m) * 3},
		{true, true, 0, 10000 * int64(n+m) * 3},
	}
	for _, c := range cases {
		for _, observed := range []bool{false, true} {
			var each func(int, int) error
			if observed {
				each = func(int, int) error { return nil }
			}
			var sc CoverScratch
			_, steps, err := sc.Drive(NewSimple(g, newRand(3), 0), c.maxSteps, c.vertices, c.edges, each)
			if !errors.Is(err, ErrStepBudget) {
				t.Fatalf("%+v observed=%v: error %v, want ErrStepBudget", c, observed, err)
			}
			if steps != c.want {
				t.Errorf("%+v observed=%v: %d steps, want %d", c, observed, steps, c.want)
			}
		}
	}
}
