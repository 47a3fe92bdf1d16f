package walk

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func mustCycle(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g, err := gen.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustRegular(t testing.TB, r *rand.Rand, n, d int) *graph.Graph {
	t.Helper()
	g, err := gen.RandomRegularSW(r, n, d)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSimpleWalkStaysOnGraph(t *testing.T) {
	g := mustRegular(t, newRand(1), 30, 4)
	w := NewSimple(g, newRand(2), 0)
	for i := 0; i < 1000; i++ {
		prev := w.Current()
		e, v := w.Step()
		edge := g.Edge(e)
		if edge.Other(prev) != v {
			t.Fatalf("step %d: edge %v does not connect %d -> %d", i, edge, prev, v)
		}
	}
}

func TestSimpleWalkCoversCycle(t *testing.T) {
	g := mustCycle(t, 20)
	w := NewSimple(g, newRand(3), 0)
	steps, err := VertexCoverSteps(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle cover time is Θ(n²); sanity range for n=20.
	if steps < 19 || steps > 2000000 {
		t.Errorf("cover steps = %d out of sane range", steps)
	}
}

func TestLazyWalkStays(t *testing.T) {
	g := mustCycle(t, 5)
	w := NewLazy(g, newRand(4), 0)
	stays := 0
	const steps = 10000
	for i := 0; i < steps; i++ {
		prev := w.Current()
		e, v := w.Step()
		if e == -1 {
			if v != prev {
				t.Fatal("lazy stay moved the walk")
			}
			stays++
		}
	}
	frac := float64(stays) / steps
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("lazy stay fraction = %v, want ~0.5", frac)
	}
}

func TestWeightedWalkMatchesSimpleWithUnitWeights(t *testing.T) {
	g := mustCycle(t, 10)
	weights := make([]float64, g.M())
	for i := range weights {
		weights[i] = 1
	}
	w, err := NewWeighted(g, newRand(5), weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := VertexCoverSteps(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if steps < 9 {
		t.Errorf("cover in %d steps impossible", steps)
	}
}

func TestWeightedWalkBias(t *testing.T) {
	// Triangle with one heavy edge: the walk should cross the heavy
	// edge far more often.
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	weights := []float64{100, 1, 1}
	w, err := NewWeighted(g, newRand(6), weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		e, _ := w.Step()
		counts[e]++
	}
	if counts[0] < 5*counts[1] || counts[0] < 5*counts[2] {
		t.Errorf("heavy edge not preferred: %v", counts)
	}
}

func TestWeightedWalkErrors(t *testing.T) {
	g := mustCycle(t, 4)
	if _, err := NewWeighted(g, newRand(1), []float64{1}, 0); err == nil {
		t.Error("length mismatch should fail")
	}
	bad := []float64{1, 1, 0, 1}
	if _, err := NewWeighted(g, newRand(1), bad, 0); err == nil {
		t.Error("zero weight should fail")
	}
}

func TestEProcessCoversAndBounds(t *testing.T) {
	g := mustRegular(t, newRand(7), 100, 4)
	e := NewEProcess(g, newRand(8), nil, 0)
	ct, err := Cover(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Vertex < int64(g.N()-1) {
		t.Errorf("vertex cover %d below n-1", ct.Vertex)
	}
	if ct.Edge < int64(g.M()) {
		t.Errorf("edge cover %d below m", ct.Edge)
	}
	// Observation 12: blue steps never exceed m.
	if e.Stats().BlueSteps > int64(g.M()) {
		t.Errorf("blue steps %d exceed m=%d", e.Stats().BlueSteps, g.M())
	}
}

// TestObservation10 verifies that on even-degree graphs every blue
// phase of the E-process ends at the vertex where it began.
func TestObservation10BluePhasesReturnToStart(t *testing.T) {
	for _, rule := range []Rule{Uniform{}, LowestEdgeFirst{}, &RoundRobin{}, TowardVisited{}} {
		g := mustRegular(t, newRand(9), 60, 4)
		e := NewEProcess(g, newRand(10), rule, 3)
		phaseStart := -1
		inBlue := false
		var budget int64 = 10_000_000
		covered := 0
		seenE := make([]bool, g.M())
		for covered < g.M() && budget > 0 {
			budget--
			before := e.Current()
			id, after := e.Step()
			if !seenE[id] {
				seenE[id] = true
				covered++
			}
			switch e.Phase() {
			case PhaseBlue:
				if !inBlue {
					inBlue = true
					phaseStart = before
				}
				// Phase ends when blue degree of current vertex is 0.
				if e.BlueDegree(after) == 0 {
					if after != phaseStart {
						t.Fatalf("rule %s: blue phase started at %d ended at %d", rule.Name(), phaseStart, after)
					}
					inBlue = false
				}
			case PhaseRed:
				if inBlue {
					t.Fatalf("rule %s: red step while a blue phase was still open", rule.Name())
				}
			}
		}
		if covered != g.M() {
			t.Fatalf("rule %s: edge cover not reached in budget", rule.Name())
		}
	}
}

// TestObservation11 verifies that during red phases every vertex has
// even blue degree (on an even-degree graph).
func TestObservation11EvenBlueDegrees(t *testing.T) {
	g := mustRegular(t, newRand(11), 40, 6)
	e := NewEProcess(g, newRand(12), nil, 0)
	var steps int64
	for steps < 200000 {
		_, v := e.Step()
		steps++
		if e.Phase() == PhaseRed || e.BlueDegree(v) == 0 {
			// Walk is between blue phases: all blue degrees even.
			for u := 0; u < g.N(); u++ {
				if e.BlueDegree(u)%2 != 0 {
					t.Fatalf("step %d: vertex %d has odd blue degree %d", steps, u, e.BlueDegree(u))
				}
			}
		}
		if len(e.UnvisitedEdgeIDs()) == 0 {
			return
		}
	}
	t.Fatal("edge cover not reached")
}

func TestEProcessRuleIndependentCover(t *testing.T) {
	// All rules must cover an even-degree expander; cover times may
	// differ but all stay finite and ≥ n−1.
	g := mustRegular(t, newRand(13), 80, 4)
	rules := []Rule{Uniform{}, LowestEdgeFirst{}, HighestEdgeFirst{}, &RoundRobin{}, TowardVisited{}, TowardUnvisited{}}
	for _, rule := range rules {
		e := NewEProcess(g, newRand(14), rule, 0)
		steps, err := VertexCoverSteps(e, 5_000_000)
		if err != nil {
			t.Fatalf("rule %s: %v", rule.Name(), err)
		}
		if steps < int64(g.N()-1) {
			t.Errorf("rule %s: impossible cover in %d steps", rule.Name(), steps)
		}
	}
}

func TestEProcessReset(t *testing.T) {
	g := mustRegular(t, newRand(15), 30, 4)
	e := NewEProcess(g, newRand(16), nil, 0)
	if _, err := VertexCoverSteps(e, 0); err != nil {
		t.Fatal(err)
	}
	e.Reset(5)
	if e.Current() != 5 {
		t.Error("reset did not move start")
	}
	if e.Stats().Total() != 0 {
		t.Error("reset did not clear stats")
	}
	for _, id := range []int{0, 1, 2} {
		if e.EdgeVisited(id) {
			t.Error("reset did not clear visited edges")
		}
	}
	if e.BlueDegree(5) != g.Degree(5) {
		t.Error("reset did not restore blue degrees")
	}
}

func TestEProcessLoopHandling(t *testing.T) {
	// Multigraph with loops: the E-process must traverse loops exactly
	// once as unvisited edges and keep blue degrees consistent.
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 0, V: 1}})
	e := NewEProcess(g, newRand(17), nil, 0)
	if e.BlueDegree(0) != 4 {
		t.Fatalf("blue degree at 0 = %d, want 4", e.BlueDegree(0))
	}
	steps, err := EdgeCoverSteps(e, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if steps < 3 {
		t.Errorf("edge cover in %d steps impossible for 3 edges", steps)
	}
	if e.Stats().BlueSteps != 3 {
		t.Errorf("blue steps = %d, want exactly 3 (each edge once)", e.Stats().BlueSteps)
	}
}

func TestEProcessStatsPhases(t *testing.T) {
	g := mustRegular(t, newRand(18), 50, 4)
	e := NewEProcess(g, newRand(19), nil, 0)
	if _, err := EdgeCoverSteps(e, 0); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.BlueSteps != int64(g.M()) {
		t.Errorf("after edge cover, blue steps = %d, want m = %d", st.BlueSteps, g.M())
	}
	if st.BluePhases == 0 {
		t.Error("no blue phases recorded")
	}
	if st.Total() != st.RedSteps+st.BlueSteps {
		t.Error("stats total inconsistent")
	}
}

func TestGreedyAliasIsUniformRule(t *testing.T) {
	// NewEProcess(nil rule) must behave exactly as Uniform{} given the
	// same random stream.
	g := mustRegular(t, newRand(20), 40, 4)
	a := NewEProcess(g, newRand(21), nil, 0)
	b := NewEProcess(g, newRand(21), Uniform{}, 0)
	for i := 0; i < 5000; i++ {
		ea, va := a.Step()
		eb, vb := b.Step()
		if ea != eb || va != vb {
			t.Fatalf("step %d: nil rule diverged from Uniform", i)
		}
	}
}

func TestChoiceWalkPrefersUnvisited(t *testing.T) {
	g := mustRegular(t, newRand(22), 100, 4)
	rwc := NewChoice(g, newRand(23), 2, 0)
	srw := NewSimple(g, newRand(23), 0)
	sChoice, err := VertexCoverSteps(rwc, 0)
	if err != nil {
		t.Fatal(err)
	}
	sSimple, err := VertexCoverSteps(srw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sChoice <= 0 || sSimple <= 0 {
		t.Fatal("cover steps must be positive")
	}
	// RWC(2) should not be catastrophically slower; typical is faster.
	if sChoice > 4*sSimple {
		t.Errorf("RWC(2) = %d much slower than SRW = %d", sChoice, sSimple)
	}
}

func TestChoiceDegeneratesToSimple(t *testing.T) {
	g := mustCycle(t, 12)
	c := NewChoice(g, newRand(24), 1, 0)
	if _, err := VertexCoverSteps(c, 0); err != nil {
		t.Fatal(err)
	}
	c2 := NewChoice(g, newRand(24), 0, 3) // d<1 coerced to 1
	if c2.Current() != 3 {
		t.Error("start vertex wrong")
	}
	if c2.Visits(3) != 1 {
		t.Error("start vertex should count one visit")
	}
}

func TestRotorRouterDeterministicCover(t *testing.T) {
	g := mustCycle(t, 15)
	ro := NewRotor(g, nil, 0)
	steps, err := VertexCoverSteps(ro, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Re-run: fully deterministic, identical cover time.
	ro.Reset(0)
	steps2, err := VertexCoverSteps(ro, 0)
	if err != nil {
		t.Fatal(err)
	}
	if steps != steps2 {
		t.Errorf("deterministic rotor gave %d then %d steps", steps, steps2)
	}
}

func TestRotorRouterCoverBound(t *testing.T) {
	// O(mD) bound with a generous constant on a torus.
	g, err := gen.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	ro := NewRotor(g, newRand(25), 0)
	steps, err := VertexCoverSteps(ro, 0)
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(20 * g.M() * g.Diameter())
	if steps > bound {
		t.Errorf("rotor cover %d exceeds 20·mD = %d", steps, bound)
	}
}

func TestLeastUsedFirstEqualisesFrequencies(t *testing.T) {
	g := mustRegular(t, newRand(26), 20, 4)
	l := NewLeastUsedFirst(g, newRand(27), 0)
	const steps = 200000
	for i := 0; i < steps; i++ {
		l.Step()
	}
	minU, maxU := l.used[0], l.used[0]
	for id := 1; id < g.M(); id++ {
		u := l.used[id]
		if u < minU {
			minU = u
		}
		if u > maxU {
			maxU = u
		}
	}
	if minU == 0 {
		t.Fatal("some edge never traversed after many steps")
	}
	if float64(maxU) > 1.5*float64(minU) {
		t.Errorf("edge frequencies unbalanced: min %d max %d", minU, maxU)
	}
}

func TestOldestFirstCoversSmallGraph(t *testing.T) {
	g := mustCycle(t, 10)
	o := NewOldestFirst(g, newRand(28), 0)
	if _, err := EdgeCoverSteps(o, 100000); err != nil {
		t.Fatal(err)
	}
	o.Reset(0)
	if o.Current() != 0 {
		t.Error("reset failed")
	}
}

func TestReturnTimeIdentity(t *testing.T) {
	// E_u(T_u^+) = 2m / d(u) exactly (Section 2.2). Monte Carlo check.
	g := mustRegular(t, newRand(29), 16, 4)
	got, err := EstimateReturnTime(g, newRand(30), 0, 20000, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(2*g.M()) / float64(g.Degree(0))
	if math.Abs(got-want)/want > 0.08 {
		t.Errorf("return time = %v, want %v (±8%%)", got, want)
	}
}

func TestCommuteTimeSymmetricOnVertexTransitive(t *testing.T) {
	g := mustCycle(t, 10)
	k01, err := EstimateCommuteTime(g, newRand(31), 0, 1, 4000, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// C10 commute time between adjacent vertices is exactly 2m·R(0,1);
	// effective resistance of 1 and 9 series = 9/10 → K = 2·10·(9/10) = 18.
	if math.Abs(k01-18) > 2.5 {
		t.Errorf("commute(0,1) = %v, want ≈18", k01)
	}
}

func TestBlanketTime(t *testing.T) {
	g := mustRegular(t, newRand(32), 30, 4)
	tbl, err := BlanketTime(g, newRand(33), 0, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tbl < int64(g.N()) {
		t.Errorf("blanket time %d below n", tbl)
	}
	if _, err := BlanketTime(g, newRand(33), 0, 0, 0); err == nil {
		t.Error("delta=0 should fail")
	}
	if _, err := BlanketTime(g, newRand(33), 0, 1, 0); err == nil {
		t.Error("delta=1 should fail")
	}
}

func TestVisitAllAtLeast(t *testing.T) {
	g := mustRegular(t, newRand(34), 20, 4)
	t1, err := VisitAllAtLeast(g, newRand(35), 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := VisitAllAtLeast(g, newRand(35), 0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if t4 < t1 {
		t.Errorf("T(4) = %d < T(1) = %d with same seed", t4, t1)
	}
	if _, err := VisitAllAtLeast(g, newRand(1), 0, 0, 0); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestHitStepsSelf(t *testing.T) {
	g := mustCycle(t, 5)
	w := NewSimple(g, newRand(36), 2)
	steps, err := HitSteps(w, 2, 0)
	if err != nil || steps != 0 {
		t.Error("hitting own position should be 0 steps")
	}
}

// TestStepBudgetErrors: a cover driver stopped by its budget returns
// the steps it took and an ErrStepBudget error counting what is left,
// on a per-Step process and on the fused ones. The counts come from a
// twin of the process driven by hand for the same number of steps.
func TestStepBudgetErrors(t *testing.T) {
	const budget = 5
	g := mustCycle(t, 50)
	procs := []struct {
		name string
		make func() Process
	}{
		{"per-step simple", func() Process { return NewSimple(g, newRand(37), 0) }},
		{"fused eprocess", func() Process { return NewEProcess(g, rng.NewXoshiro256(37), nil, 0) }},
		{"fused choice", func() Process { return NewChoice(g, rng.NewXoshiro256(37), 2, 0) }},
	}
	for _, proc := range procs {
		twin := proc.make()
		seenV, seenE := map[int]bool{twin.Current(): true}, map[int]bool{}
		for i := 0; i < budget; i++ {
			e, v := twin.Step()
			seenV[v], seenE[e] = true, true
		}
		leftV, leftE := g.N()-len(seenV), g.M()-len(seenE)
		drivers := []struct {
			name string
			run  func(Process) (int64, error)
			want string
		}{
			{"VertexCoverSteps", func(p Process) (int64, error) { return VertexCoverSteps(p, budget) },
				fmt.Sprintf("%d vertices unvisited after %d steps", leftV, budget)},
			{"EdgeCoverSteps", func(p Process) (int64, error) { return EdgeCoverSteps(p, budget) },
				fmt.Sprintf("%d edges untraversed after %d steps", leftE, budget)},
			{"Cover", func(p Process) (int64, error) {
				ct, err := Cover(p, budget)
				if ct != (CoverTimes{}) {
					t.Errorf("%s: Cover reports cover times %+v within %d steps of a 50-cycle", proc.name, ct, budget)
				}
				return budget, err
			}, fmt.Sprintf("%d vertices, %d edges uncovered after %d steps", leftV, leftE, budget)},
		}
		for _, d := range drivers {
			steps, err := d.run(proc.make())
			if !errors.Is(err, ErrStepBudget) {
				t.Errorf("%s %s: err = %v, want ErrStepBudget", proc.name, d.name, err)
				continue
			}
			if want := ErrStepBudget.Error() + ": " + d.want; err.Error() != want || steps != budget {
				t.Errorf("%s %s: (%d, %q), want (%d, %q)", proc.name, d.name, steps, err, budget, want)
			}
		}
	}
	w := NewSimple(g, newRand(37), 0)
	if _, err := HitSteps(w, 25, 3); !errors.Is(err, ErrStepBudget) {
		t.Errorf("tiny budget: HitSteps err = %v, want ErrStepBudget", err)
	}
}

func TestEstimateHittingTimeErrors(t *testing.T) {
	g := mustCycle(t, 5)
	if _, err := EstimateHittingTime(g, newRand(1), 0, 1, 0, 0); err == nil {
		t.Error("trials=0 should fail")
	}
}

func TestPerVertexRule(t *testing.T) {
	g := mustRegular(t, newRand(75), 60, 4)
	pv := &PerVertex{Rules: []Rule{Uniform{}, LowestEdgeFirst{}, &RoundRobin{}}}
	e := NewEProcess(g, newRand(76), pv, 0)
	steps, err := VertexCoverSteps(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if steps < int64(g.N()-1) {
		t.Errorf("impossible cover in %d steps", steps)
	}
	if pv.Name() != "per-vertex-mixed" {
		t.Error("name wrong")
	}
	// Blue steps still bounded by m (Observation 12 is rule-free).
	if e.Stats().BlueSteps > int64(g.M()) {
		t.Error("Observation 12 violated under mixed rule")
	}
}

func TestProcessDeterminismAcrossRuns(t *testing.T) {
	// Identical seeds must give identical trajectories for every
	// stochastic process.
	g := mustRegular(t, newRand(77), 40, 4)
	builders := map[string]func(seed int64) Process{
		"srw":      func(s int64) Process { return NewSimple(g, newRand(s), 0) },
		"lazy":     func(s int64) Process { return NewLazy(g, newRand(s), 0) },
		"eprocess": func(s int64) Process { return NewEProcess(g, newRand(s), nil, 0) },
		"vprocess": func(s int64) Process { return NewVProcess(g, newRand(s), 0) },
		"choice":   func(s int64) Process { return NewChoice(g, newRand(s), 2, 0) },
		"biased":   func(s int64) Process { return NewBiased(g, newRand(s), 0.5, 0) },
		"lufirst":  func(s int64) Process { return NewLeastUsedFirst(g, newRand(s), 0) },
		"oldest":   func(s int64) Process { return NewOldestFirst(g, newRand(s), 0) },
		"rotor":    func(s int64) Process { return NewRotor(g, newRand(s), 0) },
	}
	for name, build := range builders {
		a, b := build(99), build(99)
		for i := 0; i < 2000; i++ {
			ea, va := a.Step()
			eb, vb := b.Step()
			if ea != eb || va != vb {
				t.Fatalf("%s: diverged at step %d", name, i)
			}
		}
	}
}

type brokenRule struct{}

func (brokenRule) Name() string                            { return "broken" }
func (brokenRule) Reset(*graph.Graph)                      {}
func (brokenRule) Choose(*EProcess, int, []graph.Half) int { return 999 }

func TestEProcessRejectsMisbehavingRule(t *testing.T) {
	g := mustCycle(t, 5)
	e := NewEProcess(g, newRand(95), brokenRule{}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rule choice did not panic")
		}
	}()
	e.Step()
}
