package sim

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/walk"
)

// BiasRow is one bias point of the preference-strength ablation.
type BiasRow struct {
	Bias       float64
	N          int
	Vertex     float64
	Edge       float64
	Normalized float64 // vertex cover / n
}

// biasSweepPlan sweeps the unvisited-edge preference strength from 0
// (plain SRW) to 1 (the paper's E-process) on a random 4-regular graph.
// The paper analyses only bias = 1; the sweep shows how the linear
// cover time emerges as the preference becomes strict — the constant
// improves smoothly but the Θ(n) plateau only appears near bias 1.
func biasSweepPlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]BiasRow, *Table, error)) {
	n := 500 * cfg.Scale
	biases := []float64{0, 0.25, 0.5, 0.75, 0.9, 1}
	// One point, one arm per bias: the whole sweep runs on the same
	// instances, so the bias axis is the only varying quantity.
	var arms []Arm
	for _, bias := range biases {
		bias := bias
		arms = append(arms, CoverArm(fmt.Sprintf("bias=%g", bias),
			func(g *graph.Graph, r *rng.Rand, start int) walk.Process {
				return walk.NewBiased(g, r.Rand, bias, start)
			}))
	}
	plan := &SweepPlan{Config: cfg.config(), Points: []PointSpec{{
		Key:   fmt.Sprintf("bias n=%d", n),
		Salt:  Salt(saltBIAS, uint64(n)),
		Graph: regularPointGraph(n, 4),
		Arms:  arms,
	}}}
	finish := func(points []PointResult) ([]BiasRow, *Table, error) {
		var rows []BiasRow
		for i, res := range points[0].Arms {
			rows = append(rows, BiasRow{
				Bias:       biases[i],
				N:          n,
				Vertex:     res.VertexStats.Mean,
				Edge:       res.EdgeStats.Mean,
				Normalized: res.VertexStats.Mean / float64(n),
			})
		}
		t := NewTable("BIAS: cover time vs unvisited-edge preference strength (4-regular)",
			"bias", "n", "C_V", "C_V/n", "C_E")
		for _, r := range rows {
			t.AddRow(r.Bias, r.N, r.Vertex, r.Normalized, r.Edge)
		}
		return rows, t, nil
	}
	return plan, finish
}

func init() {
	register(Experiment{Name: "bias", Salt: saltBIAS,
		Desc: "Cover time vs unvisited-preference strength",
		Plan: adapt(biasSweepPlan)})
}
