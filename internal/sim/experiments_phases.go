package sim

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/walk"
)

// PhaseRow summarises the blue-phase decomposition on one family.
type PhaseRow struct {
	Degree      int
	N, M        int
	Phases      float64 // mean number of blue phases to edge cover
	FirstFrac   float64 // mean fraction of m consumed by the first phase
	MedianLen   float64 // mean median of the remaining phase lengths
	LongestTail float64 // mean length of the longest non-first phase / m
}

// phaseStructurePlan measures the blue-phase decomposition the proofs
// build on: on even-degree graphs the first blue phase is a macroscopic
// Euler-like sweep and the residue fragments into short phases; on odd
// degrees phases terminate early (no parity guarantee), so the count is
// much larger and the first phase smaller.
func phaseStructurePlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]PhaseRow, *Table, error)) {
	n := 500 * cfg.Scale
	degs := []int{3, 4, 6}
	// Phase statistics are richer than the two cover channels, so the
	// arm returns them in Measurement.Extra — the serialisable side
	// channel that survives checkpoint restores and shard merges, which
	// a closure-captured side array would not.
	plan := &SweepPlan{Config: cfg.config()}
	var nns []int
	for _, deg := range degs {
		nn := n
		if nn*deg%2 != 0 {
			nn++
		}
		nns = append(nns, nn)
		plan.Points = append(plan.Points, PointSpec{
			Key:   fmt.Sprintf("phases d=%d", deg),
			Salt:  Salt(saltPHASES, uint64(deg)),
			Graph: regularPointGraph(nn, deg),
			Arms: []Arm{{Name: "eprocess-phases", Run: func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
				lens, err := core.BluePhaseLengths(walk.NewEProcess(g, r, nil, 0), maxSteps)
				if err != nil {
					return Measurement{}, err
				}
				if len(lens) == 0 {
					return Measurement{}, nil
				}
				m := float64(g.M())
				firstFrac := float64(lens[0]) / m
				var medianLen, longestTail float64
				rest := append([]int64(nil), lens[1:]...)
				if len(rest) > 0 {
					sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
					medianLen = float64(rest[len(rest)/2])
					longestTail = float64(rest[len(rest)-1]) / m
				}
				return Measurement{
					Vertex: float64(len(lens)),
					Extra:  []float64{firstFrac, medianLen, longestTail},
				}, nil
			}}},
		})
	}
	finish := func(points []PointResult) ([]PhaseRow, *Table, error) {
		var rows []PhaseRow
		for di, deg := range degs {
			var phases, firstFrac, medianLen, longestTail float64
			ms := points[di].Arms[0].Measurements
			for _, m := range ms {
				phases += m.Vertex
				if len(m.Extra) == 3 {
					firstFrac += m.Extra[0]
					medianLen += m.Extra[1]
					longestTail += m.Extra[2]
				}
			}
			tr := float64(len(ms))
			rows = append(rows, PhaseRow{
				Degree:      deg,
				N:           nns[di],
				M:           nns[di] * deg / 2,
				Phases:      phases / tr,
				FirstFrac:   firstFrac / tr,
				MedianLen:   medianLen / tr,
				LongestTail: longestTail / tr,
			})
		}
		t := NewTable("PHASES: blue-phase decomposition of the E-process",
			"degree", "n", "m", "phases", "first/m", "median-rest", "longest-rest/m")
		for _, r := range rows {
			t.AddRow(r.Degree, r.N, r.M, r.Phases, r.FirstFrac, r.MedianLen, r.LongestTail)
		}
		return rows, t, nil
	}
	return plan, finish
}

func init() {
	register(Experiment{Name: "phases", Salt: saltPHASES,
		Desc: "Blue-phase decomposition of the E-process",
		Plan: adapt(phaseStructurePlan)})
}
