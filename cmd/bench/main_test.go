package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/walk"
)

// The report runner must measure real work and produce well-formed
// entries without the overhead of a full-size run.
func TestRunProducesSaneResult(t *testing.T) {
	g := mustRegular(200, 4, 1)
	res := run("step", func(b *testing.B) {
		e := walk.NewEProcess(g, rng.NewXoshiro256(2), nil, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
	if res.Name != "step" || res.Iterations <= 0 || res.NsPerOp <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

// A Report must round-trip through JSON with the field names the perf
// trajectory tooling greps for.
func TestReportJSONShape(t *testing.T) {
	rep := Report{
		GoVersion:  "go1.24",
		Benchmarks: []BenchResult{{Name: "EProcessStep", Iterations: 1, NsPerOp: 12.5}},
		Cover:      CoverResult{N: 100, Degree: 4, Trials: 2, MeanVertexSteps: 250},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var back Report
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Benchmarks[0].Name != "EProcessStep" || back.Cover.MeanVertexSteps != 250 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	for _, key := range []string{"ns_per_op", "allocs_per_op", "mean_vertex_steps"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("serialized report missing %q", key)
		}
	}
}

// -compare must keep loading every recorded report, including BENCH_6
// and earlier, which carry the retired "batch" section.
func TestLoadBaselineReadsRecordedReports(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sawBatch := false
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		_, hasBatch := fields["batch"]
		sawBatch = sawBatch || hasBatch
		base, err := loadBaseline(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if b, ok := base["EProcessStep"]; !ok || b.NsPerOp <= 0 {
			t.Errorf("%s: no EProcessStep baseline (got %+v)", path, b)
		}
	}
	if !sawBatch {
		t.Fatal("no recorded report carries a batch section; the test no longer covers it")
	}
}

// The footprint probe must report the packed layout: 8-byte halves and
// a resident hot state below the former 16-byte-Half layout's floor
// (two 16-byte copies of every half alone put it past 32 B/half).
func TestMeasureFootprintPackedLayout(t *testing.T) {
	res := measureFootprint(500, 4)
	if res.HalfBytes != 8 {
		t.Fatalf("sizeof(graph.Half) = %d, want 8", res.HalfBytes)
	}
	if res.HeapBytes <= 0 || res.PeakAllocObjs <= 0 || res.PeakAllocByte <= 0 {
		t.Fatalf("implausible footprint %+v", res)
	}
	if res.BytesPerHalf >= 32 {
		t.Errorf("bytes per half = %.1f, want below the 16-byte-Half layout's 32", res.BytesPerHalf)
	}
}

// mustRegular must stay deterministic: the benchmarks compare runs.
func TestMustRegularDeterministic(t *testing.T) {
	a, b := mustRegular(60, 4, 7), mustRegular(60, 4, 7)
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatal("edge counts differ for equal seeds")
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// The sweep benchmark's plan must be runnable and derive a distinct
// seed for every (point, stream, trial).
func TestSweepPlanShape(t *testing.T) {
	plan := sweepPlan(3, 40, 4, 2, 2, true)
	seeds := plan.Seeds()
	if want := 3 * 2 * (1 + len(benchArms())); len(seeds) != want { // points × trials × (graph + arms)
		t.Fatalf("seeds = %d, want %d", len(seeds), want)
	}
	uniq := map[uint64]bool{}
	for _, s := range seeds {
		if uniq[s] {
			t.Fatalf("duplicate derived seed %#x", s)
		}
		uniq[s] = true
	}
	points, err := plan.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, pt := range points {
		if pt.Rep == nil || !pt.Rep.Frozen() {
			t.Errorf("point %s: missing frozen representative graph", pt.Key)
		}
		if pt.Arms[0].VertexStats.Mean < 39 {
			t.Errorf("point %s: impossible cover mean %v", pt.Key, pt.Arms[0].VertexStats.Mean)
		}
	}
}
