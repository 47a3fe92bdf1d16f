// Benchmarks regenerating every figure and quantitative claim of the
// paper (EXPERIMENTS.md indexes the experiments). Each benchmark runs
// the corresponding registry experiment and reports the headline
// quantity as a custom metric; the full table is printed once per
// `go test -bench` run.
//
// Paper-scale runs (n up to 5·10⁵) are driven by cmd/sweep, e.g.
// `sweep -exp fig1 -scale 64`; the bench sizes here are chosen so a
// full -bench=. pass completes in minutes on one core.
package repro_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/sim"
)

var printOnce sync.Map

// printTable prints each experiment's table once per process.
func printTable(key string, t *sim.Table) {
	if _, loaded := printOnce.LoadOrStore(key, true); loaded {
		return
	}
	if err := t.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "table:", err)
	}
}

func benchCfg() sim.ExpConfig { return sim.ExpConfig{Seed: 2012, Trials: 3, Scale: 1} }

// runRows runs the named registry experiment and returns its rows at
// their concrete type R, with the rendered table.
func runRows[R any](b *testing.B, name string, cfg sim.ExpConfig) (R, *sim.Table) {
	b.Helper()
	res, err := sim.RunExperiment(context.Background(), name, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rows, ok := res.Rows.(R)
	if !ok {
		b.Fatalf("%s rows are %T, not %T", name, res.Rows, rows)
	}
	return rows, res.Table
}

// BenchmarkFigure1 regenerates the paper's only figure: normalised
// vertex cover time of the uniform-rule E-process on d-regular graphs,
// d ∈ {3,4,5,6,7}. The headline metrics are the final normalised cover
// times, flat (Θ(1)) for even d and growing like ln n for odd d.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, table := runRows[[]sim.Figure1Series](b, "fig1", benchCfg())
		printTable("fig1", table)
		for _, s := range series {
			last := s.Points[len(s.Points)-1]
			b.ReportMetric(last.Normalized, fmt.Sprintf("CV/n_d%d", s.Degree))
		}
	}
}

// BenchmarkTheorem1VertexCover measures E-process vertex cover against
// the Theorem 1 bound O(n + n log n/(ℓ(1−λmax))) on 4-regular graphs.
func BenchmarkTheorem1VertexCover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.Theorem1Row](b, "thm1", benchCfg())
		printTable("thm1", table)
		last := rows[len(rows)-1]
		b.ReportMetric(last.Normalized, "CV/n")
		b.ReportMetric(last.Ratio, "measured/bound")
	}
}

// BenchmarkRadzikLowerBound and the speedup over any reversible walk:
// SRW obeys (n/4)·log(n/2); the E-process beats it by Ω(min(log n, ℓ)).
func BenchmarkRadzikLowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.SpeedupRow](b, "radzik", benchCfg())
		printTable("radzik", table)
		last := rows[len(rows)-1]
		b.ReportMetric(last.SRW/last.RadzikLB, "SRW/RadzikLB")
		b.ReportMetric(last.Speedup, "speedup")
	}
}

// BenchmarkCorollary2Linearity classifies E-process vertex cover growth
// on r ∈ {4,6} random regular graphs; Corollary 2 predicts linear.
func BenchmarkCorollary2Linearity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, table := runRows[[]sim.Corollary2Result](b, "cor2", benchCfg())
		printTable("cor2", table)
		for _, r := range results {
			linear := 0.0
			if r.Verdict == "linear" {
				linear = 1
			}
			b.ReportMetric(linear, fmt.Sprintf("linear_d%d", r.Degree))
			b.ReportMetric(r.Growth.Linear.A, fmt.Sprintf("c_d%d", r.Degree))
		}
	}
}

// BenchmarkEdgeCoverSandwich verifies eq. (3):
// m ≤ C_E(E-process) ≤ m + C_V(SRW).
func BenchmarkEdgeCoverSandwich(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.SandwichRow](b, "eq3", benchCfg())
		printTable("eq3", table)
		holds := 1.0
		for _, r := range rows {
			if !r.Holds {
				holds = 0
			}
		}
		b.ReportMetric(holds, "sandwich_holds")
	}
}

// BenchmarkTheorem3EdgeCover measures E-process edge cover against the
// Theorem 3 girth-parameterised bound.
func BenchmarkTheorem3EdgeCover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.EdgeCoverRow](b, "thm3", benchCfg())
		printTable("thm3", table)
		for _, r := range rows {
			if r.Ratio > 0 {
				b.ReportMetric(r.Ratio, "ratio_girth"+fmt.Sprint(r.Girth))
			}
		}
	}
}

// BenchmarkCorollary4EdgeCover: C_E = O(ω·n) on random 4-regular.
func BenchmarkCorollary4EdgeCover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.Corollary4Row](b, "cor4", benchCfg())
		printTable("cor4", table)
		last := rows[len(rows)-1]
		b.ReportMetric(last.PerN, "CE/n")
		b.ReportMetric(last.PerNLogLog, "CE/(n·lnln_n)")
	}
}

// BenchmarkHypercubeEdgeCover: Θ(n log n) for the E-process vs
// Θ(n log² n) for the SRW on H_r.
func BenchmarkHypercubeEdgeCover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.HypercubeRow](b, "hcube", benchCfg())
		printTable("hcube", table)
		last := rows[len(rows)-1]
		b.ReportMetric(last.PerNLogN, "E/(n·ln_n)")
		b.ReportMetric(last.SRWPerNLg2, "SRW/(n·ln2_n)")
		b.ReportMetric(last.SRW/last.EProcess, "SRW/E")
	}
}

// BenchmarkOddDegreeStars: the Section 5 isolated-star census; r=3
// predicts ≈ n/8 centres, even degrees exactly 0.
func BenchmarkOddDegreeStars(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.StarRow](b, "star", benchCfg())
		printTable("star", table)
		for _, r := range rows {
			if r.Degree == 3 {
				b.ReportMetric(r.EverCenters/(float64(r.N)/8), "centres/(n/8)")
			} else {
				b.ReportMetric(r.EverCenters, "even_centres")
			}
		}
	}
}

// BenchmarkRuleIndependence: Theorem 1 is independent of rule A,
// adversarial rules included.
func BenchmarkRuleIndependence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.RuleRow](b, "rulea", benchCfg())
		printTable("rulea", table)
		worst := 0.0
		for _, r := range rows {
			if r.Normalized > worst {
				worst = r.Normalized
			}
		}
		b.ReportMetric(worst, "worst_CV/n")
	}
}

// BenchmarkRandomRegularProperties verifies (P1) and (P2) numerically.
func BenchmarkRandomRegularProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.PropertyRow](b, "p1p2", benchCfg())
		printTable("p1p2", table)
		for _, r := range rows {
			p1 := 0.0
			if r.P1Holds {
				p1 = 1
			}
			b.ReportMetric(p1, fmt.Sprintf("P1_d%d", r.Degree))
			b.ReportMetric(float64(r.P2Horizon), fmt.Sprintf("P2_s_d%d", r.Degree))
		}
	}
}

// BenchmarkGreedyRandomWalk: Orenshtein–Shinkar eq. (2) edge cover.
func BenchmarkGreedyRandomWalk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.GreedyRow](b, "grw", benchCfg())
		printTable("grw", table)
		for _, r := range rows {
			b.ReportMetric(r.Ratio, fmt.Sprintf("ratio_d%d", r.Degree))
		}
	}
}

// BenchmarkAblationEdgeVsVertex: the ablation — preferring
// unvisited edges (the paper's process) vs unvisited vertices (the
// intro's folklore heuristic) vs the plain SRW.
func BenchmarkAblationEdgeVsVertex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.AblationRow](b, "ablation", benchCfg())
		printTable("ablation", table)
		// Headline: the largest even-degree point.
		last := rows[len(rows)-1]
		b.ReportMetric(last.EProcess/float64(last.N), "E_CV/n")
		b.ReportMetric(last.VProcess/float64(last.N), "V_CV/n")
		b.ReportMetric(last.SRW/float64(last.N), "SRW_CV/n")
	}
}

// BenchmarkBiasSweep: ablation over unvisited-edge preference strength
// from SRW (bias 0) to the paper's E-process (bias 1).
func BenchmarkBiasSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.BiasRow](b, "bias", benchCfg())
		printTable("bias", table)
		for _, r := range rows {
			b.ReportMetric(r.Normalized, fmt.Sprintf("CV/n_bias%.2g", r.Bias))
		}
	}
}

// BenchmarkBlanketTime: the eq. (4) machinery — blanket time and T(r)
// are O(C_V(SRW)), bounding the E-process edge cover by m + C_V(SRW).
func BenchmarkBlanketTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.BlanketRow](b, "eq4", benchCfg())
		printTable("eq4", table)
		last := rows[len(rows)-1]
		b.ReportMetric(last.BlanketVsC, "tbl/CV")
		b.ReportMetric(last.EdgeCover/last.Eq4Bound, "CE/eq4bound")
	}
}

// BenchmarkLemma13 verifies the exponential unvisited-set bound that
// powers the Theorem 1 proof.
func BenchmarkLemma13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.Lemma13Row](b, "lemma13", benchCfg())
		printTable("lemma13", table)
		for _, r := range rows {
			b.ReportMetric(r.Measured, fmt.Sprintf("miss_S%d", r.SetSize))
		}
	}
}

// BenchmarkPhaseStructure: the blue-phase decomposition the proofs
// build on — Euler-like first sweep on even degrees, fragmentation on
// odd.
func BenchmarkPhaseStructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.PhaseRow](b, "phases", benchCfg())
		printTable("phases", table)
		for _, r := range rows {
			b.ReportMetric(r.FirstFrac, fmt.Sprintf("first/m_d%d", r.Degree))
			b.ReportMetric(r.Phases, fmt.Sprintf("phases_d%d", r.Degree))
		}
	}
}

// BenchmarkDegreeSequence: the non-regular half of Corollary 2 — fixed
// even degree sequences (d ∈ {4,6,8}) still cover in Θ(n).
func BenchmarkDegreeSequence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bundle, table := runRows[sim.DegSeqResult](b, "degseq", benchCfg())
		rows, growth := bundle.Rows, bundle.Growth
		printTable("degseq", table)
		last := rows[len(rows)-1]
		b.ReportMetric(last.Normalized, "CV/n")
		linear := 0.0
		if growth.Verdict == "linear" {
			linear = 1
		}
		b.ReportMetric(linear, "linear")
	}
}

// BenchmarkProcessComparison: SRW / E-process / RWC(d) / rotor / fair
// walks across torus, RGG and expander families (RWC, ROTOR, FAIR rows
// of the experiment index).
func BenchmarkProcessComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := runRows[[]sim.CompareRow](b, "compare", benchCfg())
		printTable("compare", table)
		// Headline: E-process vs SRW vertex cover on the expander.
		var srw, ep float64
		for _, r := range rows {
			if r.Family == "random-4-regular" {
				switch r.Process {
				case "srw":
					srw = r.Vertex
				case "eprocess":
					ep = r.Vertex
				}
			}
		}
		if ep > 0 {
			b.ReportMetric(srw/ep, "SRW/E_expander")
		}
	}
}
