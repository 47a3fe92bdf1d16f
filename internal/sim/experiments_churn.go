package sim

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/walk"
)

// Dynamic-topology experiments: the E-process on graphs that churn
// under it.
//
// The paper's guarantees are for static graphs, so these are robustness
// probes beyond the theorems:
//
//   - PCFCOVER: percolation with constant freezing. Each step an edge
//     fails permanently with probability α. At α = 0 this is exactly
//     the static E-process; as α grows, edges die under the walk and
//     the graph fragments, so runs are censored at a fixed budget and
//     the covered fraction becomes the measurement.
//   - CHURNCOVER: failure/repair churn. Edges fail AND recover at rate
//     p, keeping the expected live count stationary; a static arm on
//     the same instances gives the baseline. The question is how much
//     the blue-edge preference degrades when the edge set is only
//     stochastically present.
//
// Churn here only removes and restores edges of the generated
// instance, so both run walk.NewEProcessOn over a graph.Overlay: the
// frozen CSR read through a removed-edge mask, with a fixed edge-ID
// space. Both draw all churn from the arm's private derived generator
// via ChurnSchedule — no side state, so checkpoint/resume and shard
// merging work for dynamic points exactly as for static ones.

func init() {
	register(Experiment{Name: "pcfcover", Salt: saltPCF,
		Desc: "Dynamic: E-process cover under permanent edge freezing (rate α)",
		Plan: adapt(pcfCoverPlan)})
	register(Experiment{Name: "churncover", Salt: saltCHURN,
		Desc: "Dynamic: E-process cover under edge failure/repair churn vs static",
		Plan: adapt(churnCoverPlan)})
}

// churnArm runs the E-process over a per-trial overlay of the shared
// frozen instance, applying sched before every step, and measures the
// censored vertex cover outcome: Vertex is the steps taken (the full
// budget when censored) and Extra[0] the vertices left unvisited. The
// overlay is private to the trial — the shared graph is never mutated —
// and every churn draw interleaves on the arm's own generator, so the
// trajectory is a pure function of the derived seed. A schedule that
// never restores an edge lets the driver end a run once its outcome is
// settled; the arm's generator and overlay are discarded with the run,
// so the churn draws it skips change no measurement.
func churnArm(name string, sched ChurnSchedule) Arm {
	return Arm{Name: name, Run: func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
		ov := graph.NewOverlay(g)
		e := walk.NewEProcessOn(ov, r, nil, 0)
		out := sc.VertexCoverCensored(e, maxSteps, func() { sched.Step(ov, r) }, sched.removesOnly())
		return Measurement{Vertex: float64(out.Steps), Extra: []float64{float64(out.Uncovered)}}, nil
	}}
}

// meanUncovered averages Extra[0] (vertices left unvisited) over an
// arm's trials.
func meanUncovered(res ArmResult) float64 {
	total := 0.0
	for _, m := range res.Measurements {
		if len(m.Extra) > 0 {
			total += m.Extra[0]
		}
	}
	if len(res.Measurements) == 0 {
		return 0
	}
	return total / float64(len(res.Measurements))
}

// --- PCFCOVER: percolation with constant freezing --------------------------

// PcfCoverRow is one freeze-rate point of the PCFCOVER experiment.
type PcfCoverRow struct {
	Alpha       float64 // per-step edge-freeze probability
	N           int
	Steps       float64 // mean steps taken (censored runs spend the budget)
	Uncovered   float64 // mean vertices never reached
	CoveredFrac float64 // 1 − Uncovered/n
	Censored    int     // trials that exhausted the budget
}

func pcfCoverPlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]PcfCoverRow, *Table, error)) {
	deg := 4
	n := 240 * cfg.Scale
	// The interesting α range races freezing against covering: the
	// E-process covers this family in ≈ 2n steps, and α·2n removals out
	// of m = 2n edges is a constant fraction once α is a few percent.
	alphas := []float64{0, 0.02, 0.05, 0.1, 0.25}
	budget := int64(n) * 256
	plan := &SweepPlan{Config: cfg.config()}
	for _, a := range alphas {
		plan.Points = append(plan.Points, PointSpec{
			Key:   fmt.Sprintf("pcfcover alpha=%g", a),
			Salt:  Salt(saltPCF, uint64(n), uint64(a*1e6)),
			Graph: regularPointGraph(n, deg),
			Arms: []Arm{
				churnArm("eprocess", ChurnSchedule{Fail: a, Freeze: true}),
			},
			MaxSteps: budget,
		})
	}
	finish := func(points []PointResult) ([]PcfCoverRow, *Table, error) {
		var rows []PcfCoverRow
		for i, pt := range points {
			res := pt.Arms[0]
			unc := meanUncovered(res)
			censored := 0
			for _, m := range res.Measurements {
				if len(m.Extra) > 0 && m.Extra[0] > 0 {
					censored++
				}
			}
			rows = append(rows, PcfCoverRow{
				Alpha:       alphas[i],
				N:           n,
				Steps:       res.VertexStats.Mean,
				Uncovered:   unc,
				CoveredFrac: 1 - unc/float64(n),
				Censored:    censored,
			})
		}
		t := NewTable(fmt.Sprintf("PCFCOVER: E-process cover under permanent freezing (4-regular, n=%d, budget=%dn)", n, 256),
			"alpha", "steps", "uncovered", "covered frac", "censored")
		for _, r := range rows {
			t.AddRow(r.Alpha, r.Steps, r.Uncovered, r.CoveredFrac, r.Censored)
		}
		return rows, t, nil
	}
	return plan, finish
}

// --- CHURNCOVER: failure/repair churn vs the static baseline ---------------

// ChurnCoverRow is one churn-rate point of the CHURNCOVER experiment.
type ChurnCoverRow struct {
	P            float64 // per-step failure (and repair) probability
	N            int
	DynSteps     float64 // mean censored-cover steps under churn
	DynUncovered float64 // mean vertices never reached under churn
	StaticSteps  float64 // mean steps on the same frozen instances, no churn
	Slowdown     float64 // DynSteps / StaticSteps
}

func churnCoverPlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]ChurnCoverRow, *Table, error)) {
	deg := 4
	n := 240 * cfg.Scale
	ps := []float64{0, 0.002, 0.01, 0.05, 0.2}
	budget := int64(n) * 256
	plan := &SweepPlan{Config: cfg.config()}
	for _, p := range ps {
		plan.Points = append(plan.Points, PointSpec{
			Key:   fmt.Sprintf("churncover p=%g", p),
			Salt:  Salt(saltCHURN, uint64(n), uint64(p*1e6)),
			Graph: regularPointGraph(n, deg),
			Arms: []Arm{
				churnArm("dynamic", ChurnSchedule{Fail: p, Repair: p}),
				// Static baseline: the dynamic engine on a zero-churn
				// overlay of the same instance, measured by the same
				// censored driver, so any dynamic-vs-static difference
				// is churn — not engine or driver.
				churnArm("static", ChurnSchedule{}),
			},
			MaxSteps: budget,
		})
	}
	finish := func(points []PointResult) ([]ChurnCoverRow, *Table, error) {
		var rows []ChurnCoverRow
		for i, pt := range points {
			dyn, static := pt.Arms[0], pt.Arms[1]
			row := ChurnCoverRow{
				P:            ps[i],
				N:            n,
				DynSteps:     dyn.VertexStats.Mean,
				DynUncovered: meanUncovered(dyn),
				StaticSteps:  static.VertexStats.Mean,
			}
			if row.StaticSteps > 0 {
				row.Slowdown = row.DynSteps / row.StaticSteps
			}
			rows = append(rows, row)
		}
		t := NewTable(fmt.Sprintf("CHURNCOVER: E-process cover under failure/repair churn (4-regular, n=%d)", n),
			"p", "dyn steps", "dyn uncovered", "static steps", "slowdown")
		for _, r := range rows {
			t.AddRow(r.P, r.DynSteps, r.DynUncovered, r.StaticSteps, r.Slowdown)
		}
		return rows, t, nil
	}
	return plan, finish
}
