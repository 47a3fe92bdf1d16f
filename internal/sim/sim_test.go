package sim

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/walk"
)

func regularFactory(n, d int) GraphFactory {
	return func(r *rand.Rand) (*graph.Graph, error) {
		return gen.RandomRegularSW(r, n, d)
	}
}

func eprocessFactory(g *graph.Graph, r *rng.Rand, start int) walk.Process {
	return walk.NewEProcess(g, r, nil, start)
}

func srwFactory(g *graph.Graph, r *rng.Rand, start int) walk.Process {
	return walk.NewSimple(g, r, start)
}

// runPoint runs a one-point plan measuring arm on graphs from gf and
// returns the arm's aggregate.
func runPoint(cfg Config, gf GraphFactory, arm Arm) (ArmResult, error) {
	plan := SweepPlan{Config: cfg, Points: []PointSpec{{Key: "run", Salt: Salt(saltRun), Graph: gf, Arms: []Arm{arm}}}}
	points, err := plan.Run()
	if err != nil {
		return ArmResult{}, err
	}
	return points[0].Arms[0], nil
}

func TestRunBasic(t *testing.T) {
	res, err := runPoint(Config{Seed: 1, Trials: 4}, regularFactory(60, 4), CoverArm("cover", eprocessFactory))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measurements) != 4 {
		t.Fatalf("measurements = %d, want 4", len(res.Measurements))
	}
	if res.VertexStats.Mean < 59 {
		t.Errorf("vertex cover mean %v below n-1", res.VertexStats.Mean)
	}
	if res.EdgeStats.Mean < 120 {
		t.Errorf("edge cover mean %v below m", res.EdgeStats.Mean)
	}
	if res.EdgeStats.Mean < res.VertexStats.Mean {
		t.Error("edge cover cannot be faster than vertex cover on these graphs")
	}
}

func TestRunReproducibleAcrossWorkers(t *testing.T) {
	a, err := runPoint(Config{Seed: 42, Trials: 6, Workers: 1}, regularFactory(40, 4), CoverArm("cover", eprocessFactory))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPoint(Config{Seed: 42, Trials: 6, Workers: 4}, regularFactory(40, 4), CoverArm("cover", eprocessFactory))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Measurements {
		if !a.Measurements[i].Equal(b.Measurements[i]) {
			t.Fatalf("trial %d differs across worker counts: %+v vs %+v",
				i, a.Measurements[i], b.Measurements[i])
		}
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a, err := runPoint(Config{Seed: 1, Trials: 3}, regularFactory(40, 4), CoverArm("cover", eprocessFactory))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPoint(Config{Seed: 2, Trials: 3}, regularFactory(40, 4), CoverArm("cover", eprocessFactory))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Measurements {
		if a.Measurements[i].Equal(b.Measurements[i]) {
			same++
		}
	}
	if same == len(a.Measurements) {
		t.Error("different seeds produced identical measurements")
	}
}

func TestRunMTKind(t *testing.T) {
	res, err := runPoint(Config{Seed: 7, Trials: 2, Kind: rng.KindMT19937}, regularFactory(30, 4), CoverArm("cover", eprocessFactory))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measurements) != 2 {
		t.Fatal("wrong trial count")
	}
}

func TestRunErrors(t *testing.T) {
	cover := CoverArm("cover", eprocessFactory)
	if _, err := runPoint(Config{}, nil, cover); err == nil {
		t.Error("nil graph factory should fail")
	}
	if _, err := runPoint(Config{}, regularFactory(30, 4), Arm{Name: "none"}); err == nil {
		t.Error("nil arm func should fail")
	}
	// A negative trial count is an error, not a makeslice panic, on
	// every run path.
	if _, err := runPoint(Config{Trials: -1}, regularFactory(30, 4), cover); err == nil || !strings.Contains(err.Error(), "negative trials") {
		t.Errorf("negative trials: err = %v", err)
	}
	e, _ := Lookup("eq3")
	shardOpts := RunOptions{Checkpoint: &Checkpoint{Dir: t.TempDir()}}
	if err := e.RunShard(context.Background(), ExpConfig{Trials: -1}, Shard{Index: 0, Count: 2}, shardOpts); err == nil || !strings.Contains(err.Error(), "negative trials") {
		t.Errorf("negative trials in RunShard: err = %v", err)
	}
	// Graph factory error propagates.
	bad := func(r *rand.Rand) (*graph.Graph, error) { return gen.RandomRegular(r, 5, 5) }
	if _, err := runPoint(Config{Trials: 1}, bad, cover); err == nil {
		t.Error("factory error should propagate")
	}
	// Budget exhaustion propagates.
	if _, err := runPoint(Config{Trials: 1, MaxSteps: 3}, regularFactory(30, 4), CoverArm("cover", srwFactory)); err == nil {
		t.Error("tiny budget should propagate cover error")
	}
}

func TestRunVertexArm(t *testing.T) {
	res, err := runPoint(Config{Seed: 3, Trials: 3}, regularFactory(50, 4), VertexArm("vertex-cover", srwFactory))
	if err != nil {
		t.Fatal(err)
	}
	if res.VertexStats.N != 3 {
		t.Fatal("wrong sample size")
	}
	if res.VertexStats.Mean < 49 {
		t.Error("impossible cover time")
	}
}

func TestFigure1SmallRun(t *testing.T) {
	series, _ := runRows[[]Figure1Series](t, "fig1", ExpConfig{Seed: 11, Trials: 3})
	if len(series) != len(figure1Degrees) {
		t.Fatalf("series = %d, want %d", len(series), len(figure1Degrees))
	}
	for _, s := range series {
		if len(s.Points) != len(figure1Ns) {
			t.Fatalf("d=%d points = %d, want %d", s.Degree, len(s.Points), len(figure1Ns))
		}
		for _, p := range s.Points {
			if p.Normalized < 1 {
				t.Errorf("d=%d n=%d: normalised cover %v < 1 impossible", p.Degree, p.N, p.Normalized)
			}
		}
		if !s.HasFit {
			t.Errorf("d=%d: no growth fit", s.Degree)
		}
	}
	// Even degree should normalise smaller than odd at the same n
	// (d=4 linear vs d=3 n·log n) — check the largest-n point.
	d3 := series[0].Points[len(figure1Ns)-1].Normalized
	d4 := series[1].Points[len(figure1Ns)-1].Normalized
	if d4 >= d3 {
		t.Errorf("C_V/n at the largest n: d=4 (%v) should be below d=3 (%v)", d4, d3)
	}
}

func TestFigure1Infeasible(t *testing.T) {
	if _, _, err := figure1Plan(ExpConfig{Trials: 1}, []int{3}, []int{101}); err == nil {
		t.Error("odd n·d should be rejected")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow(1, 2.5)
	tb.AddRow("x", 3)
	var text bytes.Buffer
	if err := tb.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "== demo ==") {
		t.Error("title missing")
	}
	if got := strings.Join(tb.Rows[0], ","); got != "1,2.5" {
		t.Errorf("first row = %q, want \"1,2.5\"", got)
	}
}

func TestFigure1Table(t *testing.T) {
	series := []Figure1Series{{
		Degree: 4,
		Points: []Figure1Point{{Degree: 4, N: 100, Normalized: 2.5, StdErr: 0.1, Trials: 5}},
	}}
	tb := Figure1Table(series)
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2.5") {
		t.Error("point missing from table")
	}
}
