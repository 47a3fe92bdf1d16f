package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stats"
)

// DegSeqRow is one n-point of the mixed-degree-sequence experiment.
type DegSeqRow struct {
	N          int
	Mix        string // the degree mixture used
	Vertex     float64
	Normalized float64
}

// degreeSequencePlan measures the E-process on the second family of the
// paper's Corollary 2 discussion: fixed degree sequence random graphs
// with all degrees even, finite and at least 4 (here a 50/30/20 mixture
// of degrees 4, 6 and 8). The Θ(n) conclusion must survive the loss of
// regularity.
func degreeSequencePlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]DegSeqRow, *Table, stats.Growth, error)) {
	base := []int{200, 400, 800, 1600}
	mix := "50% d=4, 30% d=6, 20% d=8"
	plan := &SweepPlan{Config: cfg.config()}
	var ns []int
	for _, b := range base {
		n := b * cfg.Scale
		ns = append(ns, n)
		degrees := make([]int, n)
		for i := range degrees {
			switch {
			case i < n/2:
				degrees[i] = 4
			case i < n/2+(n*3)/10:
				degrees[i] = 6
			default:
				degrees[i] = 8
			}
		}
		// Degree sum is even (all degrees even), so the sequence is
		// realisable; the SW generator pairs stubs incrementally, which
		// is essential here (whole-configuration rejection accepts with
		// probability ~1e−4 on this mixture).
		plan.Points = append(plan.Points, PointSpec{
			Key:   fmt.Sprintf("degseq n=%d", n),
			Salt:  Salt(saltDEGSEQ, uint64(n)),
			Graph: func(r *rand.Rand) (*graph.Graph, error) { return gen.RandomDegreeSequenceSW(r, degrees) },
			Arms:  []Arm{eprocessArmV("eprocess", nil)},
		})
	}
	finish := func(points []PointResult) ([]DegSeqRow, *Table, stats.Growth, error) {
		var rows []DegSeqRow
		var xs, ys []float64
		for i, pt := range points {
			n := ns[i]
			mean := pt.Arms[0].VertexStats.Mean
			rows = append(rows, DegSeqRow{
				N:          n,
				Mix:        mix,
				Vertex:     mean,
				Normalized: mean / float64(n),
			})
			xs = append(xs, float64(n))
			ys = append(ys, mean)
		}
		growth, err := stats.ClassifyGrowth(xs, ys)
		if err != nil {
			return nil, nil, stats.Growth{}, err
		}
		t := NewTable("DEGSEQ: E-process on fixed even degree sequences (d ∈ {4,6,8})",
			"n", "mixture", "C_V(E)", "C_V/n", "verdict")
		for i, r := range rows {
			verdict := ""
			if i == len(rows)-1 {
				verdict = growth.Verdict
			}
			t.AddRow(r.N, r.Mix, r.Vertex, r.Normalized, verdict)
		}
		return rows, t, growth, nil
	}
	return plan, finish
}

// DegSeqResult is the degseq experiment's registry row payload: the
// per-n rows plus the growth classification fitted across them.
type DegSeqResult struct {
	Rows   []DegSeqRow  `json:"rows"`
	Growth stats.Growth `json:"growth"`
}

func init() {
	register(Experiment{Name: "degseq", Salt: saltDEGSEQ,
		Desc: "Corollary 2 on fixed even degree sequences",
		Plan: func(cfg ExpConfig) (*SweepPlan, Finish, error) {
			plan, fin := degreeSequencePlan(cfg.withDefaults())
			return plan, func(points []PointResult) (*Result, error) {
				rows, t, growth, err := fin(points)
				if err != nil {
					return nil, err
				}
				return &Result{Rows: DegSeqResult{Rows: rows, Growth: growth}, Table: t}, nil
			}, nil
		}})
}
