package sim

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// The registry experiments are exercised end-to-end at trials=2 and the
// smallest scale; the benches and CLIs run the real sizes. These tests
// assert structural sanity, not asymptotics (which need larger n).

func expCfg() ExpConfig { return ExpConfig{Seed: 123, Trials: 2, Scale: 1} }

// runRows runs the named registry experiment and returns its rows at
// their concrete type R, with the rendered table.
func runRows[R any](t testing.TB, name string, cfg ExpConfig) (R, *Table) {
	t.Helper()
	res, err := RunExperiment(context.Background(), name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := res.Rows.(R)
	if !ok {
		t.Fatalf("%s rows are %T, not %T", name, res.Rows, rows)
	}
	return rows, res.Table
}

func renderOK(t *testing.T, tb *Table) {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

func TestExpTheorem1(t *testing.T) {
	rows, tb := runRows[[]Theorem1Row](t, "thm1", expCfg())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Measured < float64(r.N-1) {
			t.Errorf("n=%d: impossible cover %v", r.N, r.Measured)
		}
		if r.Gap <= 0 || r.Gap >= 1 {
			t.Errorf("n=%d: gap %v out of (0,1)", r.N, r.Gap)
		}
		if r.EllBound < 3 {
			t.Errorf("n=%d: ℓ bound %d below girth floor", r.N, r.EllBound)
		}
		if r.Ratio <= 0 {
			t.Errorf("n=%d: ratio %v", r.N, r.Ratio)
		}
	}
	renderOK(t, tb)
}

func TestExpRadzikSpeedup(t *testing.T) {
	rows, tb := runRows[[]SpeedupRow](t, "radzik", expCfg())
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Errorf("n=%d: speedup %v", r.N, r.Speedup)
		}
		// The SRW must respect Radzik's lower bound (allow MC noise).
		if r.SRW < 0.8*r.RadzikLB {
			t.Errorf("n=%d: SRW cover %v below Radzik LB %v", r.N, r.SRW, r.RadzikLB)
		}
		// The E-process should be faster than the SRW on expanders.
		if r.EProcess >= r.SRW {
			t.Errorf("n=%d: E-process (%v) not faster than SRW (%v)", r.N, r.EProcess, r.SRW)
		}
	}
	renderOK(t, tb)
}

func TestExpCorollary2(t *testing.T) {
	res, tb := runRows[[]Corollary2Result](t, "cor2", expCfg())
	if len(res) != 2 {
		t.Fatalf("degrees = %d", len(res))
	}
	for _, r := range res {
		if len(r.Ns) != 4 {
			t.Errorf("deg %d: %d points", r.Degree, len(r.Ns))
		}
		if r.Verdict == "" {
			t.Errorf("deg %d: no verdict", r.Degree)
		}
	}
	renderOK(t, tb)
}

func TestExpEdgeSandwich(t *testing.T) {
	rows, tb := runRows[[]SandwichRow](t, "eq3", expCfg())
	for _, r := range rows {
		if !r.Holds {
			t.Errorf("n=%d: sandwich violated: C_E=%v not in [%v, %v·1.25]", r.N, r.EdgeCover, r.Lo, r.Hi)
		}
		if r.EdgeCover < float64(r.M) {
			t.Errorf("n=%d: edge cover below m", r.N)
		}
	}
	renderOK(t, tb)
}

func TestExpTheorem3(t *testing.T) {
	rows, tb := runRows[[]EdgeCoverRow](t, "thm3", expCfg())
	if len(rows) != 4 {
		t.Fatalf("families = %d", len(rows))
	}
	for _, r := range rows {
		if r.Girth < 2 {
			t.Errorf("%s: girth %d", r.Family, r.Girth)
		}
		if r.Measured < float64(r.M) {
			t.Errorf("%s: edge cover %v below m=%d", r.Family, r.Measured, r.M)
		}
		if r.Ratio <= 0 {
			t.Errorf("%s: ratio %v", r.Family, r.Ratio)
		}
	}
	renderOK(t, tb)
}

func TestExpCorollary4(t *testing.T) {
	rows, tb := runRows[[]Corollary4Row](t, "cor4", expCfg())
	for _, r := range rows {
		if r.PerN < 2 {
			t.Errorf("n=%d: C_E/n = %v below m/n = 2", r.N, r.PerN)
		}
	}
	renderOK(t, tb)
}

func TestExpHypercube(t *testing.T) {
	rows, tb := runRows[[]HypercubeRow](t, "hcube", expCfg())
	for _, r := range rows {
		if r.EProcess >= r.SRW {
			t.Errorf("H%d: E-process edge cover (%v) not below SRW (%v)", r.R, r.EProcess, r.SRW)
		}
		if r.PerNLogN <= 0 {
			t.Errorf("H%d: bad normalised value", r.R)
		}
	}
	renderOK(t, tb)
}

func TestExpOddStars(t *testing.T) {
	rows, tb := runRows[[]StarRow](t, "star", expCfg())
	var r3, r4 StarRow
	for _, r := range rows {
		switch r.Degree {
		case 3:
			r3 = r
		case 4:
			r4 = r
		}
	}
	if r4.EverCenters != 0 || r4.Peak != 0 {
		t.Errorf("even degree produced stars: %+v", r4)
	}
	if r3.EverCenters <= 0 {
		t.Errorf("3-regular produced no stars: %+v", r3)
	}
	renderOK(t, tb)
}

func TestExpRuleIndependence(t *testing.T) {
	rows, tb := runRows[[]RuleRow](t, "rulea", expCfg())
	if len(rows) != 6 {
		t.Fatalf("rules = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Normalized < 1 {
			t.Errorf("rule %s: normalised cover %v < 1 impossible", r.Rule, r.Normalized)
		}
		if r.Normalized > 50 {
			t.Errorf("rule %s: normalised cover %v far from linear", r.Rule, r.Normalized)
		}
	}
	renderOK(t, tb)
}

func TestExpRandomRegularProperties(t *testing.T) {
	rows, tb := runRows[[]PropertyRow](t, "p1p2", expCfg())
	for _, r := range rows {
		if !r.P1Holds {
			t.Errorf("deg %d: (P1) failed: λ2(adj)=%v > %v", r.Degree, r.Lambda2Adj, r.AlonBound)
		}
		if r.P2Horizon < 3 {
			t.Errorf("deg %d: (P2) fails even at s=3", r.Degree)
		}
	}
	renderOK(t, tb)
}

func TestExpGreedyWalk(t *testing.T) {
	rows, tb := runRows[[]GreedyRow](t, "grw", expCfg())
	if len(rows) < 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Measured < float64(r.M) {
			t.Errorf("deg %d: edge cover below m", r.Degree)
		}
	}
	renderOK(t, tb)
}

func TestExpProcessComparison(t *testing.T) {
	rows, tb := runRows[[]CompareRow](t, "compare", expCfg())
	if len(rows) != 21 { // 3 families × 7 processes
		t.Fatalf("rows = %d, want 21", len(rows))
	}
	for _, r := range rows {
		if r.Vertex <= 0 || r.Edge <= 0 {
			t.Errorf("%s on %s: non-positive cover times", r.Process, r.Family)
		}
		if r.Edge < r.Vertex {
			t.Errorf("%s on %s: edge cover %v before vertex cover %v in same trajectory",
				r.Process, r.Family, r.Edge, r.Vertex)
		}
	}
	renderOK(t, tb)
}

func TestExpEdgeVsVertexPreference(t *testing.T) {
	rows, tb := runRows[[]AblationRow](t, "ablation", expCfg())
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.SRW <= 0 || r.VProcess <= 0 || r.EProcess <= 0 {
			t.Errorf("deg %d n %d: non-positive cover", r.Degree, r.N)
		}
		// Both preference walks beat the SRW on these families.
		if r.VProcess >= r.SRW {
			t.Errorf("deg %d n %d: V-process (%v) not faster than SRW (%v)", r.Degree, r.N, r.VProcess, r.SRW)
		}
		if r.EProcess >= r.SRW {
			t.Errorf("deg %d n %d: E-process (%v) not faster than SRW (%v)", r.Degree, r.N, r.EProcess, r.SRW)
		}
	}
	renderOK(t, tb)
}

func TestExpAblationGrowth(t *testing.T) {
	rows, tb := runRows[[]GrowthByProcess](t, "growth", expCfg())
	if len(rows) != 3 {
		t.Fatalf("processes = %d", len(rows))
	}
	for _, r := range rows {
		if r.Growth.Verdict == "" {
			t.Errorf("%s: no verdict", r.Process)
		}
	}
	renderOK(t, tb)
}

func TestExpBiasSweep(t *testing.T) {
	rows, tb := runRows[[]BiasRow](t, "bias", expCfg())
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	if rows[0].Bias != 0 || rows[len(rows)-1].Bias != 1 {
		t.Error("sweep endpoints wrong")
	}
	// Full preference must beat no preference.
	if rows[len(rows)-1].Vertex >= rows[0].Vertex {
		t.Errorf("bias 1 (%v) should beat bias 0 (%v)", rows[len(rows)-1].Vertex, rows[0].Vertex)
	}
	renderOK(t, tb)
}

func TestExpBlanketTime(t *testing.T) {
	rows, tb := runRows[[]BlanketRow](t, "eq4", expCfg())
	for _, r := range rows {
		if r.Blanket < r.SRWCover*0.5 {
			t.Errorf("n=%d: blanket time %v implausibly below cover %v", r.N, r.Blanket, r.SRWCover)
		}
		if r.BlanketVsC > 30 {
			t.Errorf("n=%d: blanket/cover ratio %v not O(1)-like", r.N, r.BlanketVsC)
		}
		if r.EdgeCover > r.Eq4Bound*1.5 {
			t.Errorf("n=%d: C_E %v far above eq.(4) bound %v", r.N, r.EdgeCover, r.Eq4Bound)
		}
	}
	renderOK(t, tb)
}

func TestExpLemma13(t *testing.T) {
	rows, tb := runRows[[]Lemma13Row](t, "lemma13", expCfg())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The bound must hold (with slack for Monte Carlo noise at
		// small trial counts).
		if r.Measured > r.Bound+0.05 {
			t.Errorf("|S|=%d: measured %v exceeds Lemma 13 bound %v", r.SetSize, r.Measured, r.Bound)
		}
	}
	renderOK(t, tb)
}

func TestExpPhaseStructure(t *testing.T) {
	rows, tb := runRows[[]PhaseRow](t, "phases", expCfg())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var d3, d4 PhaseRow
	for _, r := range rows {
		if r.Phases < 1 {
			t.Errorf("deg %d: %v phases", r.Degree, r.Phases)
		}
		if r.FirstFrac <= 0 || r.FirstFrac > 1 {
			t.Errorf("deg %d: first fraction %v", r.Degree, r.FirstFrac)
		}
		switch r.Degree {
		case 3:
			d3 = r
		case 4:
			d4 = r
		}
	}
	// Even degree: dominant first phase and far fewer phases than odd.
	if d4.FirstFrac <= d3.FirstFrac {
		t.Errorf("first-phase fraction: d4 (%v) should exceed d3 (%v)", d4.FirstFrac, d3.FirstFrac)
	}
	if d4.Phases >= d3.Phases {
		t.Errorf("phase count: d4 (%v) should be below d3 (%v)", d4.Phases, d3.Phases)
	}
	renderOK(t, tb)
}

func TestExpDegreeSequence(t *testing.T) {
	bundle, tb := runRows[DegSeqResult](t, "degseq", expCfg())
	rows, growth := bundle.Rows, bundle.Growth
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Normalized < 1 || r.Normalized > 50 {
			t.Errorf("n=%d: C_V/n = %v implausible", r.N, r.Normalized)
		}
	}
	if growth.Verdict == "" {
		t.Error("no growth verdict")
	}
	renderOK(t, tb)
}

// SCALECOVER: one row per planned n, with n and m those of the plan's
// 4-regular points and positive normalised cover times (vertex cover
// never later than edge cover).
func TestExpScaleCover(t *testing.T) {
	cfg := expCfg()
	rows, tb := runRows[[]ScaleCoverRow](t, "scalecover", cfg)
	e, _ := Lookup("scalecover")
	plan, _, err := e.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(plan.Points) {
		t.Fatalf("rows = %d, plan has %d points", len(rows), len(plan.Points))
	}
	for i, r := range rows {
		if key := fmt.Sprintf("scalecover n=%d", r.N); key != plan.Points[i].Key {
			t.Errorf("row %d: n=%d, plan point %q", i, r.N, plan.Points[i].Key)
		}
		if r.M != 2*r.N {
			t.Errorf("n=%d: m=%d, want 2n for 4-regular", r.N, r.M)
		}
		if r.PerN <= 0 || r.PerM <= 0 || r.VertexCover > r.EdgeCover {
			t.Errorf("n=%d: implausible cover times %+v", r.N, r)
		}
		if r.HotKiB <= 0 || r.Shrink <= 1 {
			t.Errorf("n=%d: implausible footprint %+v", r.N, r)
		}
	}
	renderOK(t, tb)
}

// Every experiment honours ExpConfig.MaxSteps, fig1 included: a budget
// far below any cover time fails the run with an error naming the
// censored point.
func TestStepBudgetReachesEveryPoint(t *testing.T) {
	for name, point := range map[string]string{"thm1": "thm1 n=", "fig1": "figure1 d="} {
		_, err := RunExperiment(context.Background(), name, ExpConfig{Trials: 1, MaxSteps: 10})
		if err == nil || !strings.Contains(err.Error(), point) {
			t.Errorf("%s with MaxSteps 10: err = %v, want a step-budget error naming %q", name, err, point)
		}
	}
}
