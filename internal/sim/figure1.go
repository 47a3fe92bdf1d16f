package sim

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/walk"
)

// Figure1Point is one (degree, n) cell of the paper's Figure 1.
type Figure1Point struct {
	Degree     int
	N          int
	Normalized float64 // mean vertex cover time divided by n
	StdErr     float64 // standard error of the normalised mean
	Trials     int
}

// Figure1Series is the full series for one degree, with the growth fit
// the paper overlays on odd-degree curves.
type Figure1Series struct {
	Degree  int
	Points  []Figure1Point
	Growth  stats.Growth
	HasFit  bool
	Verdict string // "linear" or "nlogn"
}

// Figure 1's grid at scale 1. The paper plots degrees 3–7 with n up to
// 5·10⁵ and 5 trials per point; n is scaled down here for CI speed and
// multiplied by ExpConfig.Scale, so `sweep -exp fig1 -scale 64` reaches
// the paper's range.
var (
	figure1Degrees = []int{3, 4, 5, 6, 7}
	figure1Ns      = []int{1000, 2000, 4000, 8000}
)

func init() {
	register(Experiment{Name: "fig1", Salt: saltFIG1,
		Desc: "Figure 1: normalised E-process cover time by degree",
		Plan: func(cfg ExpConfig) (*SweepPlan, Finish, error) {
			cfg = cfg.withDefaults()
			ns := make([]int, len(figure1Ns))
			for i, n := range figure1Ns {
				ns[i] = n * cfg.Scale
			}
			return figure1Plan(cfg, figure1Degrees, ns)
		}})
}

// figure1Plan lays the whole (degrees × ns) grid out as one sweep, so
// every cell of the figure shares the point-parallel worker pool. The
// finished Result carries one Figure1Series per degree, in the order
// given, and a growth-verdict note for every fitted series.
func figure1Plan(cfg ExpConfig, degrees, ns []int) (*SweepPlan, Finish, error) {
	plan := &SweepPlan{Config: cfg.config()}
	for _, d := range degrees {
		for _, n := range ns {
			if d >= n || n*d%2 != 0 {
				return nil, nil, fmt.Errorf("sim: infeasible Figure 1 cell d=%d n=%d", d, n)
			}
			plan.Points = append(plan.Points, PointSpec{
				Key:   fmt.Sprintf("figure1 d=%d n=%d", d, n),
				Salt:  Salt(saltFIG1, uint64(d), uint64(n)),
				Graph: regularPointGraph(n, d),
				Arms:  []Arm{eprocessArmV("eprocess", walk.Uniform{})},
			})
		}
	}
	finish := func(points []PointResult) (*Result, error) {
		series := make([]Figure1Series, len(degrees))
		var notes []string
		for di, d := range degrees {
			s := Figure1Series{Degree: d}
			for ni, n := range ns {
				vs := points[di*len(ns)+ni].Arms[0].VertexStats
				fn := float64(n)
				s.Points = append(s.Points, Figure1Point{
					Degree:     d,
					N:          n,
					Normalized: vs.Mean / fn,
					StdErr:     vs.StdErr / fn,
					Trials:     cfg.Trials,
				})
			}
			if len(s.Points) >= 3 {
				xs := make([]float64, len(s.Points))
				ys := make([]float64, len(s.Points))
				for i, p := range s.Points {
					xs[i] = float64(p.N)
					ys[i] = p.Normalized * float64(p.N)
				}
				if growth, err := stats.ClassifyGrowth(xs, ys); err == nil {
					s.Growth, s.HasFit, s.Verdict = growth, true, growth.Verdict
					notes = append(notes, fmt.Sprintf("d=%d verdict %s; linear %s; nlogn %s",
						d, s.Verdict, growth.Linear.String(), growth.NLogN.String()))
				}
			}
			series[di] = s
		}
		return &Result{Rows: series, Table: Figure1Table(series), Notes: notes}, nil
	}
	return plan, finish, nil
}
