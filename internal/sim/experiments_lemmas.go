package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/walk"
)

// BlanketRow is one n-point of the eq. (4) experiment.
type BlanketRow struct {
	N          int
	SRWCover   float64 // C_V(SRW)
	Blanket    float64 // t_bl(0.5)
	VisitAllR  float64 // T(r): every vertex visited ≥ r times
	EdgeCover  float64 // C_E(E-process)
	Eq4Bound   float64 // m + C_V(SRW)
	BlanketVsC float64 // t_bl / C_V(SRW): Ding–Lee–Peres says O(1)
}

// blanketTimePlan measures the quantities in the paper's eq. (4)
// argument: the blanket time t_bl(δ) and the all-vertices-r-times time
// T(r) are both O(C_V(SRW)), which bounds the E-process edge cover by
// O(m + C_V(SRW)).
func blanketTimePlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]BlanketRow, *Table, error)) {
	deg := 4
	base := []int{200, 400}
	// Four measurements per point, each an arm on the same
	// instances; the step counts travel in Measurement.Vertex except
	// for the E-process edge cover.
	blanketArm := Arm{Name: "blanket", Run: func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
		bl, err := walk.BlanketTime(g, r.Rand, 0, 0.5, maxSteps)
		if err != nil {
			return Measurement{}, err
		}
		return Measurement{Vertex: float64(bl)}, nil
	}}
	visitAllArm := Arm{Name: "visit-all-r", Run: func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
		va, err := walk.VisitAllAtLeast(g, r.Rand, 0, deg, maxSteps)
		if err != nil {
			return Measurement{}, err
		}
		return Measurement{Vertex: float64(va)}, nil
	}}
	plan := &SweepPlan{Config: cfg.config()}
	var ns []int
	for _, b := range base {
		n := b * cfg.Scale
		ns = append(ns, n)
		plan.Points = append(plan.Points, PointSpec{
			Key:   fmt.Sprintf("eq4 n=%d", n),
			Salt:  Salt(saltEQ4, uint64(n)),
			Graph: regularPointGraph(n, deg),
			Arms:  []Arm{srwArmV("srw"), blanketArm, visitAllArm, eprocessArm("eprocess")},
		})
	}
	finish := func(points []PointResult) ([]BlanketRow, *Table, error) {
		var rows []BlanketRow
		for i, pt := range points {
			n := ns[i]
			m := float64(n * deg / 2)
			row := BlanketRow{
				N:         n,
				SRWCover:  pt.Arms[0].VertexStats.Mean,
				Blanket:   pt.Arms[1].VertexStats.Mean,
				VisitAllR: pt.Arms[2].VertexStats.Mean,
				EdgeCover: pt.Arms[3].EdgeStats.Mean,
			}
			row.Eq4Bound = m + row.SRWCover
			row.BlanketVsC = row.Blanket / row.SRWCover
			rows = append(rows, row)
		}
		t := NewTable("EQ4: blanket time, T(r) and the E-process edge cover (4-regular)",
			"n", "C_V(SRW)", "t_bl(0.5)", "T(r)", "C_E(E)", "m+C_V(SRW)", "t_bl/C_V")
		for _, r := range rows {
			t.AddRow(r.N, r.SRWCover, r.Blanket, r.VisitAllR, r.EdgeCover, r.Eq4Bound, r.BlanketVsC)
		}
		return rows, t, nil
	}
	return plan, finish
}

// Lemma13Row compares the measured probability that a vertex set S
// stays unvisited up to step t with Lemma 13's exponential bound.
type Lemma13Row struct {
	N        int
	SetSize  int
	T        int64
	Measured float64 // empirical Pr(S unvisited at t)
	Bound    float64 // exp(−t·d(S)·gap/(14m)), 1 if hypotheses unmet
}

// lemma13Plan verifies the engine of the paper's main proof: for a set
// S with d(S) ≤ m/(6·log n) and t ≥ 7m/(d(S)·gap), the probability a
// random walk misses S for t steps is at most exp(−t·d(S)·gap/(14m)). S
// is taken as a BFS ball around a fixed vertex, matching the connected
// blue fragments of Lemma 15.
func lemma13Plan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]Lemma13Row, *Table, error)) {
	// The walk count below derives from cfg.Trials; default here so the
	// builder is safe even if a caller skips withDefaults.
	cfg = cfg.withDefaults()
	n := 200 * cfg.Scale
	deg := 4
	radii := []int{0, 1, 2}
	walks := 200 * cfg.Trials
	// One sampled instance (Trials: 1) shared by one arm per ball
	// radius. The lazy spectral gap is computed once on the shared
	// graph; arms of a trial run sequentially, but sync.Once keeps the
	// memo correct under any future scheduling.
	var (
		gapOnce sync.Once
		gapVal  float64
		gapErr  error
	)
	lazyGapOf := func(g *graph.Graph) (float64, error) {
		gapOnce.Do(func() { gapVal, gapErr = lazyGap(g) })
		return gapVal, gapErr
	}
	var arms []Arm
	for _, radius := range radii {
		radius := radius
		arms = append(arms, Arm{Name: fmt.Sprintf("radius=%d", radius), Run: func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
			gapValue, err := lazyGapOf(g)
			if err != nil {
				return Measurement{}, err
			}
			m := g.M()
			// S is a BFS ball around a vertex far from the walk's start
			// (vertex n−1; the start is 0), matching the connected blue
			// fragments of Lemma 15.
			ball, _ := g.BallAround(g.N()-1, radius)
			dS := g.DegreeOf(ball)
			tSteps := int64(math.Ceil(7 * float64(m) / (float64(dS) * gapValue)))
			inS := make([]bool, g.N())
			for _, v := range ball {
				inS[v] = true
			}
			missed := 0
			for w := 0; w < walks; w++ {
				lazy := walk.NewLazy(g, r, 0)
				hit := false
				for step := int64(0); step < tSteps; step++ {
					_, v := lazy.Step()
					if inS[v] {
						hit = true
						break
					}
				}
				if !hit {
					missed++
				}
			}
			// |S|, t and the bound are derived quantities of the shared
			// instance; Extra carries them with the unit so a restored
			// (checkpointed or shard-merged) run reproduces the table
			// without re-running the walks.
			return Measurement{
				Vertex: float64(missed) / float64(walks),
				Extra: []float64{
					float64(len(ball)),
					float64(tSteps),
					core.UnvisitedSetProbBound(g.N(), m, dS, gapValue, float64(tSteps)),
				},
			}, nil
		}})
	}
	plan := &SweepPlan{Config: cfg.config(), Points: []PointSpec{{
		Key:    fmt.Sprintf("lemma13 n=%d", n),
		Salt:   Salt(saltLEMMA13, uint64(n)),
		Graph:  regularPointGraph(n, deg),
		Arms:   arms,
		Trials: 1,
	}}}
	finish := func(points []PointResult) ([]Lemma13Row, *Table, error) {
		var rows []Lemma13Row
		for ri := range radii {
			res := points[0].Arms[ri]
			ex := res.Measurements[0].Extra
			if len(ex) != 3 {
				return nil, nil, fmt.Errorf("sim: lemma13 radius %d: measurement carries %d extra values, want 3", radii[ri], len(ex))
			}
			rows = append(rows, Lemma13Row{
				N:        n,
				SetSize:  int(ex[0]),
				T:        int64(ex[1]),
				Measured: res.VertexStats.Mean,
				Bound:    ex[2],
			})
		}
		t := NewTable("LEMMA13: Pr(S unvisited at t) vs the exponential bound (lazy walk, 4-regular)",
			"n", "|S|", "t", "measured", "bound")
		for _, row := range rows {
			t.AddRow(row.N, row.SetSize, row.T, row.Measured, row.Bound)
		}
		return rows, t, nil
	}
	return plan, finish
}

func init() {
	register(Experiment{Name: "eq4", Salt: saltEQ4,
		Desc: "Blanket time / T(r) / eq. (4) edge-cover bound",
		Plan: adapt(blanketTimePlan)})
	register(Experiment{Name: "lemma13", Salt: saltLEMMA13,
		Desc: "Lemma 13: unvisited-set probability bound",
		Plan: adapt(lemma13Plan)})
}
