package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/walk"
)

// --- HCUBE: hypercube edge cover case study -------------------------------

// HypercubeRow is one dimension point of the HCUBE experiment.
type HypercubeRow struct {
	R          int // dimension; n = 2^r
	N, M       int
	EProcess   float64 // E-process edge cover
	SRW        float64 // SRW edge cover
	PerNLogN   float64 // E-process / (n·ln n): paper predicts Θ(1)
	SRWPerNLg2 float64 // SRW / (n·ln² n): paper predicts Θ(1)
	GRWBound   float64 // eq. (2) upper bound (loose here: O(n log² n))
}

// hypercubePlan contrasts E-process and SRW edge cover on H_r: the
// paper argues Θ(n log n) vs Θ(n log² n), beating the eq. (2) bound.
func hypercubePlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]HypercubeRow, *Table, error)) {
	dims := []int{6, 8, 10}
	if cfg.Scale >= 4 {
		dims = []int{8, 10, 12}
	}
	// SRW edge cover measured directly (not just vertex cover) via the
	// full-cover arm; both processes run on the same hypercube.
	srwArm := CoverArm("srw", func(g *graph.Graph, r *rng.Rand, start int) walk.Process {
		return walk.NewSimple(g, r, start)
	})
	plan := &SweepPlan{Config: cfg.config()}
	for _, r := range dims {
		r := r
		plan.Points = append(plan.Points, PointSpec{
			Key:   fmt.Sprintf("hcube r=%d", r),
			Salt:  Salt(saltHCUBE, uint64(r)),
			Graph: buildOnce(func() (*graph.Graph, error) { return gen.Hypercube(r) }),
			Arms:  []Arm{eprocessArm("eprocess"), srwArm},
		})
	}
	finish := func(points []PointResult) ([]HypercubeRow, *Table, error) {
		var rows []HypercubeRow
		for i, pt := range points {
			r := dims[i]
			// H_r has n = 2^r vertices and m = r·2^(r−1) edges.
			nv, m := 1<<r, r<<(r-1)
			ep, srw := pt.Arms[0], pt.Arms[1]
			n := float64(nv)
			lnN := math.Log(n)
			// Lazy gap of H_r: λ2 = 1−2/r → lazy gap = 1/r.
			rows = append(rows, HypercubeRow{
				R: r, N: nv, M: m,
				EProcess:   ep.EdgeStats.Mean,
				SRW:        srw.EdgeStats.Mean,
				PerNLogN:   ep.EdgeStats.Mean / (n * lnN),
				SRWPerNLg2: srw.EdgeStats.Mean / (n * lnN * lnN),
				GRWBound:   core.GreedyWalkBound(nv, m, 1/float64(r)),
			})
		}
		t := NewTable("HCUBE: edge cover on the hypercube H_r",
			"r", "n", "m", "C_E(E)", "C_E(SRW)", "E/(n·ln n)", "SRW/(n·ln² n)", "eq2 bound")
		for _, row := range rows {
			t.AddRow(row.R, row.N, row.M, row.EProcess, row.SRW, row.PerNLogN, row.SRWPerNLg2, row.GRWBound)
		}
		return rows, t, nil
	}
	return plan, finish
}

// --- STAR: Section 5 isolated blue stars on odd-degree graphs -------------

// StarRow is one (degree, n) census of the STAR experiment.
type StarRow struct {
	Degree      int
	N           int
	EverCenters float64 // mean distinct star centres over the run
	Peak        float64 // mean peak simultaneous population
	NOver8      float64 // the paper's n/8 prediction (r=3 only)
}

// oddStarsPlan runs the Section 5 star census: 3-regular graphs should
// produce ≈ n/8 isolated blue stars; even degrees exactly 0.
func oddStarsPlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]StarRow, *Table, error)) {
	n := 400 * cfg.Scale
	degs := []int{3, 4}
	// The census arm repurposes the Measurement channels: Vertex
	// carries the distinct-centre count, Edge the peak population.
	censusArm := Arm{Name: "star-census", Run: func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
		e := walk.NewEProcess(g, r, nil, 0)
		st, err := core.StarCensusRun(e, maxSteps)
		if err != nil {
			return Measurement{}, err
		}
		return Measurement{Vertex: float64(st.EverCenters), Edge: float64(st.Peak)}, nil
	}}
	plan := &SweepPlan{Config: cfg.config()}
	for _, deg := range degs {
		plan.Points = append(plan.Points, PointSpec{
			Key:   fmt.Sprintf("star d=%d", deg),
			Salt:  Salt(saltSTAR, uint64(deg)),
			Graph: regularPointGraph(n, deg),
			Arms:  []Arm{censusArm},
		})
	}
	finish := func(points []PointResult) ([]StarRow, *Table, error) {
		var rows []StarRow
		for i, pt := range points {
			deg := degs[i]
			pred := 0.0
			if deg == 3 {
				pred = core.OddStarExpectation(n)
			}
			rows = append(rows, StarRow{
				Degree:      deg,
				N:           n,
				EverCenters: pt.Arms[0].VertexStats.Mean,
				Peak:        pt.Arms[0].EdgeStats.Mean,
				NOver8:      pred,
			})
		}
		t := NewTable("STAR: isolated blue stars left by the blue walk (Section 5)",
			"degree", "n", "ever-centres", "peak", "n/8 prediction")
		for _, r := range rows {
			t.AddRow(r.Degree, r.N, r.EverCenters, r.Peak, r.NOver8)
		}
		return rows, t, nil
	}
	return plan, finish
}

// --- RULEA: rule independence ---------------------------------------------

// RuleRow is one rule's cover time in the RULEA experiment.
type RuleRow struct {
	Rule       string
	N          int
	Vertex     float64
	Normalized float64
}

// ruleIndependencePlan runs the E-process under every implemented rule
// A on the same graph family; Theorem 1 predicts all normalised cover
// times stay O(1) on even-degree expanders, adversarial rules included.
func ruleIndependencePlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]RuleRow, *Table, error)) {
	n := 500 * cfg.Scale
	// Rules are built fresh per trial: stateful rules (RoundRobin) carry
	// per-run state that must not be shared across the worker pool's
	// concurrent trials.
	rules := []func() walk.Rule{
		func() walk.Rule { return walk.Uniform{} },
		func() walk.Rule { return walk.LowestEdgeFirst{} },
		func() walk.Rule { return walk.HighestEdgeFirst{} },
		func() walk.Rule { return &walk.RoundRobin{} },
		func() walk.Rule { return walk.TowardVisited{} },
		func() walk.Rule { return walk.TowardUnvisited{} },
	}
	// One point, six arms: every rule runs on the same instances.
	var arms []Arm
	for _, newRule := range rules {
		newRule := newRule
		arms = append(arms, VertexArm(newRule().Name(), func(g *graph.Graph, r *rng.Rand, start int) walk.Process {
			return walk.NewEProcess(g, r, newRule(), start)
		}))
	}
	plan := &SweepPlan{Config: cfg.config(), Points: []PointSpec{{
		Key:   fmt.Sprintf("rulea n=%d", n),
		Salt:  Salt(saltRULEA, uint64(n)),
		Graph: regularPointGraph(n, 4),
		Arms:  arms,
	}}}
	finish := func(points []PointResult) ([]RuleRow, *Table, error) {
		var rows []RuleRow
		for i, res := range points[0].Arms {
			rows = append(rows, RuleRow{
				Rule:       rules[i]().Name(),
				N:          n,
				Vertex:     res.VertexStats.Mean,
				Normalized: res.VertexStats.Mean / float64(n),
			})
		}
		t := NewTable("RULEA: E-process vertex cover under different rules A (4-regular)",
			"rule", "n", "C_V(E)", "C_V/n")
		for _, r := range rows {
			t.AddRow(r.Rule, r.N, r.Vertex, r.Normalized)
		}
		return rows, t, nil
	}
	return plan, finish
}

// --- P1P2: random regular structural properties ---------------------------

// PropertyRow is one degree's (P1)/(P2) verification.
type PropertyRow struct {
	Degree      int
	N           int
	Lambda2Adj  float64 // λ2 of the adjacency matrix = r·λ2(P)
	AlonBound   float64 // 2·sqrt(r−1) + ε
	P1Holds     bool
	P2Horizon   int // largest s ≤ horizon at which (P2) holds
	ShortCycles int // census size at the horizon
}

// randomRegularPropertiesPlan verifies (P1) and (P2) numerically on
// sampled random regular graphs.
func randomRegularPropertiesPlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]PropertyRow, *Table, error)) {
	n := 400 * cfg.Scale
	const eps = 0.35 // (P1) allows any constant ε > 0; finite-n slack
	degs := []int{4, 6}
	// Structural experiment: no walk arms, only one sampled instance
	// per degree (Trials: 1) whose Rep graph is analysed after the run.
	plan := &SweepPlan{Config: cfg.config()}
	for _, deg := range degs {
		plan.Points = append(plan.Points, PointSpec{
			Key:     fmt.Sprintf("p1p2 d=%d", deg),
			Salt:    Salt(saltP1P2, uint64(deg)),
			Graph:   regularPointGraph(n, deg),
			Trials:  1,
			KeepRep: true,
		})
	}
	const horizon = 8
	finish := func(points []PointResult) ([]PropertyRow, *Table, error) {
		l2s := make([]float64, len(points))
		censuses := make([][]core.Cycle, len(points))
		tasks := make([][]func() error, len(points))
		for i, pt := range points {
			tasks[i] = []func() error{
				func() (err error) { l2s[i], err = spectral.Lambda2(pt.Rep, spectral.Options{Tol: 1e-9}); return err },
				func() (err error) { censuses[i], err = core.Census(pt.Rep, horizon, 0); return err },
			}
		}
		if err := runAnalysis(cfg.Workers, tasks); err != nil {
			return nil, nil, err
		}
		var rows []PropertyRow
		for i, pt := range points {
			deg := degs[i]
			g := pt.Rep
			adjL2 := l2s[i] * float64(deg)
			alon := 2*math.Sqrt(float64(deg-1)) + eps
			cycles := censuses[i]
			p2 := 0
			for s := 3; s <= horizon; s++ {
				if core.P2Holds(g, s, cycles) {
					p2 = s
				} else {
					break
				}
			}
			rows = append(rows, PropertyRow{
				Degree:      deg,
				N:           n,
				Lambda2Adj:  adjL2,
				AlonBound:   alon,
				P1Holds:     adjL2 <= alon,
				P2Horizon:   p2,
				ShortCycles: len(cycles),
			})
		}
		t := NewTable("P1P2: structural properties of random regular graphs (Section 4)",
			"degree", "n", "λ2(adj)", "2√(r−1)+ε", "(P1)", "(P2) up to s", "short cycles")
		for _, r := range rows {
			t.AddRow(r.Degree, r.N, r.Lambda2Adj, r.AlonBound, r.P1Holds, r.P2Horizon, r.ShortCycles)
		}
		return rows, t, nil
	}
	return plan, finish
}

// --- GRW: Orenshtein–Shinkar greedy random walk ---------------------------

// GreedyRow is one degree point of the GRW experiment.
type GreedyRow struct {
	Degree   int
	N, M     int
	Measured float64 // GRW edge cover (= uniform-rule E-process)
	Bound    float64 // eq. (2) with measured gap
	Ratio    float64
}

// greedyWalkPlan measures GRW edge cover against the eq. (2) bound,
// including an r = Θ(log n) family where the bound is Θ(m).
func greedyWalkPlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]GreedyRow, *Table, error)) {
	n := 256 * cfg.Scale
	lgN := 0
	for s := n; s > 1; s >>= 1 {
		lgN++
	}
	candidates := []int{4, 6, lgN &^ 1} // include an even r ≈ log2 n
	var degs []int
	for _, deg := range candidates {
		if deg >= n || deg < 3 {
			continue
		}
		degs = append(degs, deg)
	}
	plan := &SweepPlan{Config: cfg.config()}
	for _, deg := range degs {
		plan.Points = append(plan.Points, PointSpec{
			Key:     fmt.Sprintf("grw d=%d", deg),
			Salt:    Salt(saltGRW, uint64(deg)),
			Graph:   regularPointGraph(n, deg),
			Arms:    []Arm{eprocessArm("grw")},
			KeepRep: true,
		})
	}
	finish := func(points []PointResult) ([]GreedyRow, *Table, error) {
		gaps := make([]float64, len(points))
		tasks := make([][]func() error, len(points))
		for i, pt := range points {
			tasks[i] = []func() error{
				func() (err error) { gaps[i], err = lazyGap(pt.Rep); return err },
			}
		}
		if err := runAnalysis(cfg.Workers, tasks); err != nil {
			return nil, nil, err
		}
		var rows []GreedyRow
		for i, pt := range points {
			g := pt.Rep
			row := GreedyRow{
				Degree:   degs[i],
				N:        g.N(),
				M:        g.M(),
				Measured: pt.Arms[0].EdgeStats.Mean,
				Bound:    core.GreedyWalkBound(g.N(), g.M(), gaps[i]),
			}
			row.Ratio = row.Measured / row.Bound
			rows = append(rows, row)
		}
		t := NewTable("GRW: greedy random walk edge cover vs eq. (2)",
			"degree", "n", "m", "C_E(GRW)", "bound", "ratio")
		for _, r := range rows {
			t.AddRow(r.Degree, r.N, r.M, r.Measured, r.Bound, r.Ratio)
		}
		return rows, t, nil
	}
	return plan, finish
}

// --- RWC / ROTOR / FAIR: comparison processes -----------------------------

// CompareRow is one process's cover time in the comparison experiments.
type CompareRow struct {
	Process string
	Family  string
	N       int
	Vertex  float64
	Edge    float64
}

// processComparisonPlan runs SRW, E-process, RWC(2), RWC(3), the
// rotor-router and the locally fair walks on a torus and a random
// geometric graph (the Avin–Krishnamachari setting) plus a random
// 4-regular expander.
func processComparisonPlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]CompareRow, *Table, error)) {
	side := 20 * cfg.Scale
	nRGG := 300 * cfg.Scale
	nReg := 400 * cfg.Scale
	type fam struct {
		name  string
		n     int // vertex count of every instance build makes
		build GraphFactory
	}
	families := []fam{
		{"torus", side * side, buildOnce(func() (*graph.Graph, error) { return gen.Torus(side, side) })},
		{"rgg", nRGG, func(r *rand.Rand) (*graph.Graph, error) { return gen.RandomGeometricConnected(r, nRGG, 0) }},
		{"random-4-regular", nReg, regularPointGraph(nReg, 4)},
	}
	type proc struct {
		name  string
		build ProcessFactory
	}
	procs := []proc{
		{"srw", func(g *graph.Graph, r *rng.Rand, s int) walk.Process { return walk.NewSimple(g, r, s) }},
		{"eprocess", func(g *graph.Graph, r *rng.Rand, s int) walk.Process { return walk.NewEProcess(g, r, nil, s) }},
		{"rwc(2)", func(g *graph.Graph, r *rng.Rand, s int) walk.Process { return walk.NewChoice(g, r, 2, s) }},
		{"rwc(3)", func(g *graph.Graph, r *rng.Rand, s int) walk.Process { return walk.NewChoice(g, r, 3, s) }},
		{"rotor", func(g *graph.Graph, r *rng.Rand, s int) walk.Process { return walk.NewRotor(g, r, s) }},
		{"least-used", func(g *graph.Graph, r *rng.Rand, s int) walk.Process { return walk.NewLeastUsedFirst(g, r, s) }},
		{"oldest-first", func(g *graph.Graph, r *rng.Rand, s int) walk.Process { return walk.NewOldestFirst(g, r, s) }},
	}
	// One point per family; every process is an arm on the same
	// instances. (The pre-sweep code derived one seed per (family,
	// process) pair with a hand-mixed expression whose precedence bug
	// let distinct pairs collide, and regenerated the graph per pair.)
	plan := &SweepPlan{Config: cfg.config()}
	for fi, f := range families {
		arms := make([]Arm, len(procs))
		for pi, p := range procs {
			arms[pi] = CoverArm(p.name, p.build)
		}
		plan.Points = append(plan.Points, PointSpec{
			Key:   "compare " + f.name,
			Salt:  Salt(saltCOMPARE, uint64(fi)),
			Graph: f.build,
			Arms:  arms,
		})
	}
	finish := func(points []PointResult) ([]CompareRow, *Table, error) {
		var rows []CompareRow
		for fi, pt := range points {
			for pi, res := range pt.Arms {
				rows = append(rows, CompareRow{
					Process: procs[pi].name, Family: families[fi].name, N: families[fi].n,
					Vertex: res.VertexStats.Mean,
					Edge:   res.EdgeStats.Mean,
				})
			}
		}
		t := NewTable("COMPARE: cover times across processes and families",
			"family", "process", "n", "C_V", "C_E")
		for _, r := range rows {
			t.AddRow(r.Family, r.Process, r.N, r.Vertex, r.Edge)
		}
		return rows, t, nil
	}
	return plan, finish
}

func init() {
	register(Experiment{Name: "hcube", Salt: saltHCUBE,
		Desc: "Hypercube edge cover case study",
		Plan: adapt(hypercubePlan)})
	register(Experiment{Name: "star", Salt: saltSTAR,
		Desc: "Section 5: isolated blue stars on odd degree",
		Plan: adapt(oddStarsPlan)})
	register(Experiment{Name: "rulea", Salt: saltRULEA,
		Desc: "Rule-A independence (incl. adversary)",
		Plan: adapt(ruleIndependencePlan)})
	register(Experiment{Name: "p1p2", Salt: saltP1P2,
		Desc: "Random regular properties (P1), (P2)",
		Plan: adapt(randomRegularPropertiesPlan)})
	register(Experiment{Name: "grw", Salt: saltGRW,
		Desc: "Greedy random walk vs eq. (2)",
		Plan: adapt(greedyWalkPlan)})
	register(Experiment{Name: "compare", Salt: saltCOMPARE,
		Desc: "Process comparison (SRW/E/RWC/rotor/fair)",
		Plan: adapt(processComparisonPlan)})
}
