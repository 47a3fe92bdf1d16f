package sim

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/walk"
)

// AblationRow compares unvisited-EDGE preference (the paper's
// E-process) with unvisited-VERTEX preference and the plain SRW on the
// same instances. The paper's introduction motivates the E-process via
// exactly this contrast.
type AblationRow struct {
	Degree   int
	N        int
	SRW      float64
	VProcess float64
	EProcess float64
}

func vprocessArmV(name string) Arm {
	return VertexArm(name, func(g *graph.Graph, r *rng.Rand, s int) walk.Process {
		return walk.NewVProcess(g, r, s)
	})
}

// edgeVsVertexPlan runs the ablation over odd and even degrees and n
// values; the E-process's even-degree guarantee (Θ(n)) is the
// differentiator the paper proves.
func edgeVsVertexPlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]AblationRow, *Table, error)) {
	base := []int{250, 500, 1000}
	degs := []int{3, 4}
	plan := &SweepPlan{Config: cfg.config()}
	type cell struct{ deg, n int }
	var cells []cell
	for _, deg := range degs {
		for _, b := range base {
			n := b * cfg.Scale
			if n*deg%2 != 0 {
				n++
			}
			cells = append(cells, cell{deg, n})
			plan.Points = append(plan.Points, PointSpec{
				Key:   fmt.Sprintf("ablation d=%d n=%d", deg, n),
				Salt:  Salt(saltABLATION, uint64(deg), uint64(n)),
				Graph: regularPointGraph(n, deg),
				// All three processes run on the same instances.
				Arms: []Arm{srwArmV("srw"), vprocessArmV("vprocess"), eprocessArmV("eprocess", nil)},
			})
		}
	}
	finish := func(points []PointResult) ([]AblationRow, *Table, error) {
		var rows []AblationRow
		for i, pt := range points {
			rows = append(rows, AblationRow{
				Degree:   cells[i].deg,
				N:        cells[i].n,
				SRW:      pt.Arms[0].VertexStats.Mean,
				VProcess: pt.Arms[1].VertexStats.Mean,
				EProcess: pt.Arms[2].VertexStats.Mean,
			})
		}
		t := NewTable("ABLATION: unvisited-edge vs unvisited-vertex preference (vertex cover)",
			"degree", "n", "C_V(SRW)", "C_V(V-proc)", "C_V(E-proc)", "E/V", "E/SRW")
		for _, r := range rows {
			t.AddRow(r.Degree, r.N, r.SRW, r.VProcess, r.EProcess,
				r.EProcess/r.VProcess, r.EProcess/r.SRW)
		}
		return rows, t, nil
	}
	return plan, finish
}

// GrowthByProcess classifies cover-time growth for each process on
// even-degree graphs; only the E-process is guaranteed linear.
type GrowthByProcess struct {
	Process string
	Growth  stats.Growth
}

// ablationGrowthPlan classifies the growth of the three processes on
// 4-regular graphs over an n sweep.
func ablationGrowthPlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]GrowthByProcess, *Table, error)) {
	base := []int{200, 400, 800, 1600}
	procNames := []string{"srw", "vprocess", "eprocess"}
	plan := &SweepPlan{Config: cfg.config()}
	var ns []int
	for _, b := range base {
		n := b * cfg.Scale
		ns = append(ns, n)
		plan.Points = append(plan.Points, PointSpec{
			Key:   fmt.Sprintf("growth n=%d", n),
			Salt:  Salt(saltGROWTH, uint64(n)),
			Graph: regularPointGraph(n, 4),
			// (The pre-sweep code salted each process's batch with the
			// LENGTH of the process name, so "vprocess" and "eprocess"
			// shared seeds; arms on a shared graph make that impossible.)
			Arms: []Arm{srwArmV("srw"), vprocessArmV("vprocess"), eprocessArmV("eprocess", nil)},
		})
	}
	finish := func(points []PointResult) ([]GrowthByProcess, *Table, error) {
		var out []GrowthByProcess
		t := NewTable("ABLATION-GROWTH: cover growth by process (4-regular)",
			"process", "n", "C_V", "C_V/n", "verdict")
		for pi, name := range procNames {
			var xs, ys []float64
			for i, pt := range points {
				xs = append(xs, float64(ns[i]))
				ys = append(ys, pt.Arms[pi].VertexStats.Mean)
			}
			growth, err := stats.ClassifyGrowth(xs, ys)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, GrowthByProcess{Process: name, Growth: growth})
			for i := range points {
				verdict := ""
				if i == len(points)-1 {
					verdict = growth.Verdict
				}
				t.AddRow(name, ns[i], ys[i], ys[i]/xs[i], verdict)
			}
		}
		return out, t, nil
	}
	return plan, finish
}

func init() {
	register(Experiment{Name: "ablation", Salt: saltABLATION,
		Desc: "Unvisited-edge vs unvisited-vertex preference",
		Plan: adapt(edgeVsVertexPlan)})
	register(Experiment{Name: "growth", Salt: saltGROWTH,
		Desc: "Cover growth classification by process",
		Plan: adapt(ablationGrowthPlan)})
}
