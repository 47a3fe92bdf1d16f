package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/walk"
)

// ExpConfig parameterises every registry experiment (EXPERIMENTS.md
// lists them). Scale multiplies the base problem sizes: 1 is
// CI-friendly, larger values approach the paper's ranges.
type ExpConfig struct {
	Seed    uint64
	Trials  int // default 5 (the paper's per-point count)
	Scale   int // default 1
	Workers int
	// Kind selects the RNG family (default xoshiro256**; use
	// rng.KindMT19937 to mirror the paper's Python experiments). Like
	// Seed it changes every derived generator, so it is part of the run
	// identity (RunKey / checkpoint manifest); Workers is not.
	Kind rng.Kind
	// MaxSteps caps each trial's walk (0 = per-experiment default).
	// Points that pin their own budget (PointSpec.MaxSteps, e.g. the
	// churn experiments) keep it regardless.
	MaxSteps int64
}

func (c ExpConfig) withDefaults() ExpConfig {
	if c.Trials == 0 {
		c.Trials = 5
	}
	if c.Scale < 1 {
		c.Scale = 1
	}
	return c
}

// config maps the experiment knobs onto the sweep runner's Config. All
// seed derivation happens inside the SweepPlan via deriveSeed; the
// experiments only contribute point salts built with Salt.
func (c ExpConfig) config() Config {
	return Config{Seed: c.Seed, Trials: c.Trials, Workers: c.Workers, Kind: c.Kind, MaxSteps: c.MaxSteps}
}

func eprocessArmV(name string, rule walk.Rule) Arm {
	return VertexArm(name, func(g *graph.Graph, r *rng.Rand, start int) walk.Process {
		return walk.NewEProcess(g, r, rule, start)
	})
}

func eprocessArm(name string) Arm {
	return CoverArm(name, func(g *graph.Graph, r *rng.Rand, start int) walk.Process {
		return walk.NewEProcess(g, r, nil, start)
	})
}

func srwArmV(name string) Arm {
	return VertexArm(name, func(g *graph.Graph, r *rng.Rand, start int) walk.Process {
		return walk.NewSimple(g, r, start)
	})
}

func regularPointGraph(n, deg int) GraphFactory {
	return func(r *rand.Rand) (*graph.Graph, error) { return gen.RandomRegularSW(r, n, deg) }
}

func init() {
	register(Experiment{Name: "thm1", Salt: saltTHM1,
		Desc: "Theorem 1: E-process vertex cover vs bound",
		Plan: adapt(theorem1Plan)})
	register(Experiment{Name: "radzik", Salt: saltRADZIK,
		Desc: "Theorem 5: SRW lower bound and E-process speedup",
		Plan: adapt(radzikPlan)})
	register(Experiment{Name: "cor2", Salt: saltCOR2,
		Desc: "Corollary 2: Θ(n) growth for r ≥ 4 even",
		Plan: adapt(corollary2Plan)})
	register(Experiment{Name: "eq3", Salt: saltEQ3,
		Desc: "Equation 3: edge cover sandwich",
		Plan: adapt(edgeSandwichPlan)})
	register(Experiment{Name: "thm3", Salt: saltTHM3,
		Desc: "Theorem 3: girth-parameterised edge cover",
		Plan: adapt(theorem3Plan)})
	register(Experiment{Name: "cor4", Salt: saltCOR4,
		Desc: "Corollary 4: edge cover O(ωn) on random regular",
		Plan: adapt(corollary4Plan)})
}

// --- THM1: Theorem 1 vertex cover on even-degree expanders ---------------

// Theorem1Row is one n-point of the THM1 experiment.
type Theorem1Row struct {
	N          int
	Degree     int
	Measured   float64 // mean E-process vertex cover time
	Normalized float64 // measured / n
	EllBound   int     // certified ℓ lower bound used in the theorem bound
	Gap        float64 // measured 1 − λmax (lazy)
	Bound      float64 // Theorem 1 bound with unit constant
	Ratio      float64 // measured / bound — must stay O(1) as n grows
}

// theorem1Plan measures the E-process vertex cover time on random
// even-degree regular graphs against the Theorem 1 bound O(n + n log n
// / (ℓ(1−λmax))).
func theorem1Plan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]Theorem1Row, *Table, error)) {
	deg := 4
	base := []int{200, 400, 800}
	plan := &SweepPlan{Config: cfg.config()}
	var ns []int
	for _, b := range base {
		n := b * cfg.Scale
		ns = append(ns, n)
		plan.Points = append(plan.Points, PointSpec{
			Key:   fmt.Sprintf("thm1 n=%d", n),
			Salt:  Salt(saltTHM1, uint64(n)),
			Graph: regularPointGraph(n, deg),
			Arms:  []Arm{eprocessArmV("eprocess", walk.Uniform{})},
		})
	}
	finish := func(points []PointResult) ([]Theorem1Row, *Table, error) {
		// Spectral gap and ℓ on the representative instance: the
		// literal trial-0 frozen graph the measurements ran on.
		gaps := make([]float64, len(points))
		ells := make([]core.LGoodResult, len(points))
		tasks := make([][]func() error, len(points))
		for i, pt := range points {
			horizon := int(math.Log(float64(ns[i]))) + 2
			tasks[i] = []func() error{
				func() (err error) { gaps[i], err = lazyGap(pt.Rep); return err },
				func() (err error) { ells[i], err = core.LGoodGraph(pt.Rep, horizon); return err },
			}
		}
		if err := runAnalysis(cfg.Workers, tasks); err != nil {
			return nil, nil, err
		}
		var rows []Theorem1Row
		for i, pt := range points {
			n := ns[i]
			res := pt.Arms[0]
			row := Theorem1Row{
				N:          n,
				Degree:     deg,
				Measured:   res.VertexStats.Mean,
				Normalized: res.VertexStats.Mean / float64(n),
				EllBound:   ells[i].Ell,
				Gap:        gaps[i],
				Bound:      core.Theorem1Bound(n, float64(ells[i].Ell), gaps[i]),
			}
			row.Ratio = row.Measured / row.Bound
			rows = append(rows, row)
		}
		t := NewTable("THM1: E-process vertex cover vs Theorem 1 bound (4-regular)",
			"n", "C_V(E)", "C_V/n", "ell>=", "gap", "bound", "measured/bound")
		for _, r := range rows {
			t.AddRow(r.N, r.Measured, r.Normalized, r.EllBound, r.Gap, r.Bound, r.Ratio)
		}
		return rows, t, nil
	}
	return plan, finish
}

// --- RADZIK: lower bound + speedup ---------------------------------------

// SpeedupRow compares SRW and E-process cover on the same family.
type SpeedupRow struct {
	N        int
	SRW      float64
	EProcess float64
	Speedup  float64
	RadzikLB float64 // (n/4)·log(n/2): SRW must sit above, E-process may beat it
	FeigeLB  float64 // n·ln n
}

// radzikPlan measures the SRW-vs-E-process speedup on random 4-regular
// graphs and checks both against Radzik's and Feige's lower bounds
// (which constrain the SRW but not the E-process).
func radzikPlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]SpeedupRow, *Table, error)) {
	deg := 4
	base := []int{200, 400, 800}
	plan := &SweepPlan{Config: cfg.config()}
	var ns []int
	for _, b := range base {
		n := b * cfg.Scale
		ns = append(ns, n)
		plan.Points = append(plan.Points, PointSpec{
			Key:   fmt.Sprintf("radzik n=%d", n),
			Salt:  Salt(saltRADZIK, uint64(n)),
			Graph: regularPointGraph(n, deg),
			// Both processes run on the same frozen instances.
			Arms: []Arm{srwArmV("srw"), eprocessArmV("eprocess", nil)},
		})
	}
	finish := func(points []PointResult) ([]SpeedupRow, *Table, error) {
		var rows []SpeedupRow
		for i, pt := range points {
			n := ns[i]
			srw, ep := pt.Arms[0], pt.Arms[1]
			rows = append(rows, SpeedupRow{
				N:        n,
				SRW:      srw.VertexStats.Mean,
				EProcess: ep.VertexStats.Mean,
				Speedup:  core.SpeedupRatio(srw.VertexStats.Mean, ep.VertexStats.Mean),
				RadzikLB: core.RadzikLowerBound(n),
				FeigeLB:  core.FeigeLowerBound(n),
			})
		}
		t := NewTable("RADZIK: SRW vs E-process vertex cover (4-regular)",
			"n", "C_V(SRW)", "C_V(E)", "speedup", "(n/4)log(n/2)", "n ln n")
		for _, r := range rows {
			t.AddRow(r.N, r.SRW, r.EProcess, r.Speedup, r.RadzikLB, r.FeigeLB)
		}
		return rows, t, nil
	}
	return plan, finish
}

// --- COR2: Θ(n) linearity for r ≥ 4 even ---------------------------------

// Corollary2Result holds the growth classification per degree.
type Corollary2Result struct {
	Degree  int
	Ns      []int
	Means   []float64
	Growth  stats.Growth
	Verdict string
}

// corollary2Plan sweeps n for even degrees and classifies the E-process
// vertex cover growth; Corollary 2 predicts "linear".
func corollary2Plan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]Corollary2Result, *Table, error)) {
	base := []int{200, 400, 800, 1600}
	degs := []int{4, 6}
	plan := &SweepPlan{Config: cfg.config()}
	for _, deg := range degs {
		for _, b := range base {
			n := b * cfg.Scale
			plan.Points = append(plan.Points, PointSpec{
				Key:   fmt.Sprintf("cor2 d=%d n=%d", deg, n),
				Salt:  Salt(saltCOR2, uint64(deg), uint64(n)),
				Graph: regularPointGraph(n, deg),
				Arms:  []Arm{eprocessArmV("eprocess", nil)},
			})
		}
	}
	finish := func(points []PointResult) ([]Corollary2Result, *Table, error) {
		var out []Corollary2Result
		t := NewTable("COR2: E-process vertex cover growth on r-regular graphs (r even)",
			"degree", "n", "C_V(E)", "C_V/n", "verdict")
		pi := 0
		for _, deg := range degs {
			res := Corollary2Result{Degree: deg}
			var ns, ys []float64
			for _, b := range base {
				n := b * cfg.Scale
				mean := points[pi].Arms[0].VertexStats.Mean
				pi++
				res.Ns = append(res.Ns, n)
				res.Means = append(res.Means, mean)
				ns = append(ns, float64(n))
				ys = append(ys, mean)
			}
			growth, err := stats.ClassifyGrowth(ns, ys)
			if err != nil {
				return nil, nil, err
			}
			res.Growth = growth
			res.Verdict = growth.Verdict
			for i := range res.Ns {
				verdict := ""
				if i == len(res.Ns)-1 {
					verdict = res.Verdict
				}
				t.AddRow(deg, res.Ns[i], res.Means[i], res.Means[i]/float64(res.Ns[i]), verdict)
			}
			out = append(out, res)
		}
		return out, t, nil
	}
	return plan, finish
}

// --- EQ3: edge cover sandwich ---------------------------------------------

// SandwichRow verifies m ≤ C_E(E) ≤ m + C_V(SRW).
type SandwichRow struct {
	N, M      int
	EdgeCover float64
	SRWCover  float64
	Lo, Hi    float64
	Holds     bool
}

// edgeSandwichPlan measures the eq. (3) sandwich on random 4-regular
// graphs.
func edgeSandwichPlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]SandwichRow, *Table, error)) {
	base := []int{200, 400, 800}
	deg := 4
	plan := &SweepPlan{Config: cfg.config()}
	var ns []int
	for _, b := range base {
		n := b * cfg.Scale
		ns = append(ns, n)
		plan.Points = append(plan.Points, PointSpec{
			Key:   fmt.Sprintf("eq3 n=%d", n),
			Salt:  Salt(saltEQ3, uint64(n)),
			Graph: regularPointGraph(n, deg),
			Arms:  []Arm{eprocessArm("eprocess"), srwArmV("srw")},
		})
	}
	finish := func(points []PointResult) ([]SandwichRow, *Table, error) {
		var rows []SandwichRow
		for i, pt := range points {
			n := ns[i]
			m := n * deg / 2
			ep, srw := pt.Arms[0], pt.Arms[1]
			lo, hi := core.EdgeCoverSandwich(m, srw.VertexStats.Mean)
			rows = append(rows, SandwichRow{
				N: n, M: m,
				EdgeCover: ep.EdgeStats.Mean,
				SRWCover:  srw.VertexStats.Mean,
				Lo:        lo, Hi: hi,
				// The sandwich is exact per trajectory; on means allow the
				// Monte-Carlo noise of the independent SRW estimate.
				Holds: ep.EdgeStats.Mean >= lo && ep.EdgeStats.Mean <= hi*1.25,
			})
		}
		t := NewTable("EQ3: m <= C_E(E-process) <= m + C_V(SRW) (4-regular)",
			"n", "m", "C_E(E)", "C_V(SRW)", "lower", "upper", "holds")
		for _, r := range rows {
			t.AddRow(r.N, r.M, r.EdgeCover, r.SRWCover, r.Lo, r.Hi, r.Holds)
		}
		return rows, t, nil
	}
	return plan, finish
}

// --- THM3/COR4: edge cover on girth-parameterised families ---------------

// EdgeCoverRow is one family point of the THM3 experiment.
type EdgeCoverRow struct {
	Family   string
	N, M     int
	Girth    int
	Gap      float64
	Measured float64
	Bound    float64
	Ratio    float64
}

// theorem3Plan measures E-process edge cover against the Theorem 3
// bound on even-degree families with different girths: circulants
// (girth 4), a Margulis expander (girth 3–4), and random 4-regular
// graphs.
func theorem3Plan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]EdgeCoverRow, *Table, error)) {
	type family struct {
		name  string
		build GraphFactory
	}
	n := 400 * cfg.Scale
	k := int(math.Sqrt(float64(n)))
	families := []family{
		// Girth 3: tightest circulant.
		{"circulant(n;1,2)", func(r *rand.Rand) (*graph.Graph, error) { return gen.Circulant(n, []int{1, 2}) }},
		// Girth 4: spreading the second offset to √n removes triangles
		// (any two offsets still close a 4-cycle via +1,+k,−1,−k) and
		// improves the gap over C_n(1,2).
		{fmt.Sprintf("circulant(n;1,%d)", k), func(r *rand.Rand) (*graph.Graph, error) { return gen.Circulant(n, []int{1, k}) }},
		{"random-4-regular", regularPointGraph(n, 4)},
		// The paper's citation [11]: an actual Ramanujan graph —
		// 6-regular, girth ≥ 2·log_5 q, optimal spectral gap.
		{"lps(5,13)", func(r *rand.Rand) (*graph.Graph, error) { return gen.LPS(5, 13) }},
	}
	plan := &SweepPlan{Config: cfg.config()}
	for i, fam := range families {
		plan.Points = append(plan.Points, PointSpec{
			Key:   "thm3 " + fam.name,
			Salt:  Salt(saltTHM3, uint64(i)),
			Graph: fam.build,
			Arms:  []Arm{eprocessArm("eprocess")},
		})
	}
	finish := func(points []PointResult) ([]EdgeCoverRow, *Table, error) {
		gaps := make([]float64, len(points))
		girths := make([]int, len(points))
		tasks := make([][]func() error, len(points))
		for i, pt := range points {
			tasks[i] = []func() error{
				func() (err error) { gaps[i], err = lazyGap(pt.Rep); return err },
				func() error { girths[i] = pt.Rep.Girth(); return nil },
			}
		}
		if err := runAnalysis(cfg.Workers, tasks); err != nil {
			return nil, nil, err
		}
		var rows []EdgeCoverRow
		for i, pt := range points {
			g := pt.Rep
			res := pt.Arms[0]
			row := EdgeCoverRow{
				Family:   families[i].name,
				N:        g.N(),
				M:        g.M(),
				Girth:    girths[i],
				Gap:      gaps[i],
				Measured: res.EdgeStats.Mean,
				Bound:    core.Theorem3Bound(g.N(), g.M(), girths[i], g.MaxDegree(), gaps[i]),
			}
			row.Ratio = row.Measured / row.Bound
			rows = append(rows, row)
		}
		t := NewTable("THM3: E-process edge cover vs Theorem 3 bound",
			"family", "n", "m", "girth", "gap", "C_E(E)", "bound", "ratio")
		for _, r := range rows {
			t.AddRow(r.Family, r.N, r.M, r.Girth, r.Gap, r.Measured, r.Bound, r.Ratio)
		}
		return rows, t, nil
	}
	return plan, finish
}

// Corollary4Row is one n-point of the COR4 experiment.
type Corollary4Row struct {
	N          int
	M          int
	Measured   float64
	PerN       float64 // C_E / n — Corollary 4 says this grows slower than any ω
	PerNLogLog float64 // C_E / (n·log log n), a concrete slowly-growing ω
}

// corollary4Plan sweeps n on random 4-regular graphs and reports the
// normalised edge cover time; Corollary 4 predicts C_E = O(ω·n) for any
// ω → ∞.
func corollary4Plan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]Corollary4Row, *Table, error)) {
	base := []int{200, 400, 800, 1600}
	plan := &SweepPlan{Config: cfg.config()}
	var ns []int
	for _, b := range base {
		n := b * cfg.Scale
		ns = append(ns, n)
		plan.Points = append(plan.Points, PointSpec{
			Key:   fmt.Sprintf("cor4 n=%d", n),
			Salt:  Salt(saltCOR4, uint64(n)),
			Graph: regularPointGraph(n, 4),
			Arms:  []Arm{eprocessArm("eprocess")},
		})
	}
	finish := func(points []PointResult) ([]Corollary4Row, *Table, error) {
		var rows []Corollary4Row
		for i, pt := range points {
			n := ns[i]
			loglog := math.Log(math.Log(float64(n)))
			mean := pt.Arms[0].EdgeStats.Mean
			rows = append(rows, Corollary4Row{
				N:          n,
				M:          2 * n,
				Measured:   mean,
				PerN:       mean / float64(n),
				PerNLogLog: mean / (float64(n) * loglog),
			})
		}
		t := NewTable("COR4: E-process edge cover on random 4-regular graphs",
			"n", "m", "C_E(E)", "C_E/n", "C_E/(n·lnln n)")
		for _, r := range rows {
			t.AddRow(r.N, r.M, r.Measured, r.PerN, r.PerNLogLog)
		}
		return rows, t, nil
	}
	return plan, finish
}
