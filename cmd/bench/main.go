// Command bench runs the repository's hot-path benchmarks in-process
// (via testing.Benchmark, no `go test` invocation needed) and writes a
// machine-readable JSON report, so the perf trajectory of the walk
// engine is tracked as an artifact (BENCH_1.json, BENCH_2.json, ...)
// rather than scattered across PR descriptions.
//
// Usage:
//
//	go run ./cmd/bench -o BENCH_1.json [-n 10000] [-d 4] [-trials 5]
//
// -compare <baseline.json> switches to A/B mode: instead of writing a
// report it re-runs the step benchmarks in interleaved rounds (every
// bench sampled once per round, min-of-rounds reported) and prints
// per-benchmark deltas against the baseline report, using SimpleStep —
// untouched by any engine change — as the host-speed control.
// -cpuprofile / -memprofile write pprof profiles of either mode.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/walk"
)

// BenchResult is one benchmark's outcome in the JSON report.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// CoverResult reports mean cover times from a sim trial batch — the
// end-to-end metric every step-level optimisation exists to improve.
type CoverResult struct {
	N                int     `json:"n"`
	Degree           int     `json:"degree"`
	Trials           int     `json:"trials"`
	MeanVertexSteps  float64 `json:"mean_vertex_steps"`
	MeanEdgeSteps    float64 `json:"mean_edge_steps"`
	VertexStepsPerN  float64 `json:"vertex_steps_per_n"`
	WallSecondsTotal float64 `json:"wall_seconds_total"`
}

// SweepResult reports the sweep-level benchmark: the same multi-point,
// multi-arm workload run in the BENCH_1-era shape (every arm as its own
// serial batch, regenerating its graph) and as one SweepPlan (points ×
// trials on the worker pool, one frozen graph per trial shared by all
// arms). The speedup combines graph-reuse (visible even on one core,
// since generation dominates short covers) with point-parallelism
// (visible on multicore).
type SweepResult struct {
	Points          int     `json:"points"`
	ArmsPerPoint    int     `json:"arms_per_point"`
	TrialsPerPoint  int     `json:"trials_per_point"`
	N               int     `json:"n"`
	Degree          int     `json:"degree"`
	Workers         int     `json:"workers"`
	BaselineSeconds float64 `json:"baseline_seconds"`
	SweepSeconds    float64 `json:"sweep_seconds"`
	Speedup         float64 `json:"speedup"`
}

// FootprintResult reports the resident memory of one cover trial's hot
// state — frozen CSR graph, E-process (pending arena + visited bitset)
// and cover scratch — measured from live heap growth, plus the
// construction-allocation profile. bytes_per_half is the headline
// layout metric: total hot bytes divided by the 2m half-edges, ~16 for
// the packed 32-bit layout (two 8-byte copies of each half dominate)
// versus ~33 for the former 16-byte-Half/[]bool layout.
type FootprintResult struct {
	N             int     `json:"n"`
	Degree        int     `json:"degree"`
	HalfBytes     int     `json:"half_bytes"`       // unsafe.Sizeof(graph.Half{})
	HeapBytes     int64   `json:"heap_bytes"`       // live heap growth holding the hot state
	BytesPerHalf  float64 `json:"bytes_per_half"`   // HeapBytes / 2m
	PeakAllocObjs int64   `json:"peak_alloc_objs"`  // allocations to build + run one cover
	PeakAllocByte int64   `json:"peak_alloc_bytes"` // bytes allocated to build + run one cover
}

// ChurnResult is the dynamic-topology section: the overlay engine's
// step cost next to the frozen fast path. dyn_step_zero_churn is the
// pure interface-and-cache overhead (same graph, no mutations);
// dyn_step_churn adds a failure/repair ChurnSchedule event stream, so
// its delta over zero-churn is the per-step price of invalidating and
// rebuilding the live-adjacency cache under real churn; overlay_mutate
// is one RemoveEdge+RestoreEdge pair in isolation. The frozen-path
// numbers in Benchmarks must not move when this section is added —
// static Step never touches the overlay machinery.
type ChurnResult struct {
	N               int         `json:"n"`
	Degree          int         `json:"degree"`
	ChurnRate       float64     `json:"churn_rate"`
	DynStepZero     BenchResult `json:"dyn_step_zero_churn"`
	DynStepChurn    BenchResult `json:"dyn_step_churn"`
	OverlayMutate   BenchResult `json:"overlay_mutate"`
	DynOverheadPct  float64     `json:"dyn_overhead_pct"`  // zero-churn dyn step vs static EProcessStep
	ChurnPenaltyPct float64     `json:"churn_penalty_pct"` // churned step vs zero-churn dyn step
}

// ServeResult is the reprod-daemon section, measured over a real
// loopback TCP listener rather than in-process handler calls so the
// numbers include what a client actually pays. cold_ms is the first
// request for a key (plans and runs the sweep, encodes the result);
// hit is the steady-state latency of the identical request answered
// from the exact result cache — the daemon's whole point is the gap
// between the two (cold_over_hit_x). The fan-in rows replay the
// acceptance scenario as a benchmark: fan_in concurrent identical
// cold requests must collapse onto fan_in_runs = 1 experiment run
// (counted from the server's own run histogram, not inferred), with
// the rest joining as single-flight followers (fan_in_shared).
type ServeResult struct {
	Exp          string      `json:"exp"`
	Trials       int         `json:"trials"`
	ColdMs       float64     `json:"cold_ms"`
	Hit          BenchResult `json:"hit"`
	ColdOverHitX float64     `json:"cold_over_hit_x"`
	FanIn        int         `json:"fan_in"`
	FanInRuns    int         `json:"fan_in_runs"`
	FanInShared  int         `json:"fan_in_shared"`
	FanInWallMs  float64     `json:"fan_in_wall_ms"`
}

// LargeNResult is the large-n scaling section: the same full-cover
// benchmark at an n whose hot state overflows mid-level caches, where
// the compact layout's smaller working set pays the most.
type LargeNResult struct {
	N         int             `json:"n"`
	Degree    int             `json:"degree"`
	Cover     BenchResult     `json:"cover"`
	Footprint FootprintResult `json:"footprint"`
}

// Report is the top-level JSON document.
type Report struct {
	GoVersion  string          `json:"go_version"`
	GOARCH     string          `json:"goarch"`
	GOOS       string          `json:"goos"`
	NumCPU     int             `json:"num_cpu"`
	Benchmarks []BenchResult   `json:"benchmarks"`
	Cover      CoverResult     `json:"cover"`
	Sweep      SweepResult     `json:"sweep"`
	Footprint  FootprintResult `json:"footprint"`
	Churn      ChurnResult     `json:"churn"`
	Serve      ServeResult     `json:"serve"`
	LargeN     LargeNResult    `json:"large_n"`
}

// benchReps is how many times each benchmark is repeated; the reported
// result is the median by ns/op. A single testing.Benchmark sample on
// a shared host wobbles ±10%, which is enough to blur a real layout
// win; the median of several runs is what the perf trajectory compares
// (set by -reps).
var benchReps = 5

func run(name string, f func(b *testing.B)) BenchResult {
	results := make([]testing.BenchmarkResult, 0, benchReps)
	for i := 0; i < benchReps; i++ {
		results = append(results, testing.Benchmark(f))
	}
	sort.Slice(results, func(i, j int) bool {
		return float64(results[i].T.Nanoseconds())/float64(results[i].N) <
			float64(results[j].T.Nanoseconds())/float64(results[j].N)
	})
	r := results[len(results)/2]
	return BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// namedBench is one entry of the step-benchmark list, shared by the
// report mode (median of benchReps, matching every earlier BENCH_N
// file) and -compare mode (interleaved rounds, min).
type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// stepBenches is the frozen hot-path list every BENCH_N report carries.
// Order matters to -compare's interleaving: one round samples each
// entry once, in order, so consecutive samples of the same benchmark
// are separated by the whole list and slow host drift is spread across
// all of them instead of biasing whichever ran last.
func stepBenches(stepGraph, coverGraph *graph.Graph) []namedBench {
	return []namedBench{
		{"EProcessStep", func(b *testing.B) {
			e := walk.NewEProcess(stepGraph, rng.NewXoshiro256(2), nil, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		}},
		{"EProcessStepMathRand", func(b *testing.B) {
			e := walk.NewEProcess(stepGraph, rand.New(rand.NewSource(2)), nil, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		}},
		{"SimpleStep", func(b *testing.B) {
			w := walk.NewSimple(stepGraph, rng.NewXoshiro256(4), 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
			}
		}},
		{"EProcessFullVertexCover", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := walk.NewEProcess(coverGraph, rng.NewXoshiro256(uint64(i)), nil, 0)
				if _, err := walk.VertexCoverSteps(e, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"EProcessFullVertexCoverReuse", func(b *testing.B) {
			e := walk.NewEProcess(coverGraph, rng.NewXoshiro256(11), nil, 0)
			var sc walk.CoverScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset(0)
				if _, err := sc.VertexCoverSteps(e, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// runInterleaved samples every benchmark once per round, in list order,
// and reports each one's minimum ns/op round. Min-of-interleaved-rounds
// is the A/B methodology: the minimum strips slow one-sided noise
// (host contention hits some rounds, never all), and interleaving
// guarantees the compared benchmarks sample the same noise epochs.
func runInterleaved(benches []namedBench, rounds int) []BenchResult {
	out := make([]BenchResult, len(benches))
	for i, nb := range benches {
		out[i] = BenchResult{Name: nb.name, NsPerOp: math.Inf(1)}
	}
	for round := 0; round < rounds; round++ {
		for i, nb := range benches {
			r := testing.Benchmark(nb.fn)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if ns < out[i].NsPerOp {
				out[i] = BenchResult{
					Name:        nb.name,
					Iterations:  r.N,
					NsPerOp:     ns,
					BytesPerOp:  r.AllocedBytesPerOp(),
					AllocsPerOp: r.AllocsPerOp(),
				}
			}
		}
	}
	return out
}

// runCompare is -compare mode: re-run the step benchmarks interleaved
// and print deltas against a baseline report. SimpleStep is the
// control: no engine change touches it, so any movement there is host
// drift and the run says so instead of letting the other deltas
// masquerade as regressions or wins. Returns a process exit code.
func runCompare(benches []namedBench, baselinePath string, rounds int) int {
	baseBy, err := loadBaseline(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -compare:", err)
		return 1
	}

	now := runInterleaved(benches, rounds)
	fmt.Printf("compare vs %s (min of %d interleaved rounds)\n", baselinePath, rounds)
	const controlDriftPct = 5.0
	var controlDrift float64
	for _, b := range now {
		old, ok := baseBy[b.Name]
		if !ok || old.NsPerOp == 0 {
			fmt.Printf("  %-32s %12.2f ns/op        (not in baseline)\n", b.Name, b.NsPerOp)
			continue
		}
		delta := (b.NsPerOp/old.NsPerOp - 1) * 100
		fmt.Printf("  %-32s %12.2f ns/op  %12.2f ns/op  %+7.2f%%\n", b.Name, old.NsPerOp, b.NsPerOp, delta)
		if b.Name == "SimpleStep" {
			controlDrift = delta
		}
	}
	if math.Abs(controlDrift) > controlDriftPct {
		fmt.Printf("  WARNING: SimpleStep control moved %+.2f%% (>%.0f%%): host speed drifted since the baseline; absolute deltas above are unreliable\n",
			controlDrift, controlDriftPct)
	} else {
		fmt.Printf("  control: SimpleStep %+.2f%% (within %.0f%% noise)\n", controlDrift, controlDriftPct)
	}
	return 0
}

// loadBaseline reads a BENCH_*.json report and indexes its step
// benchmarks by name. Sections this version no longer writes (the
// former "batch" section of BENCH_6 and earlier) are ignored.
func loadBaseline(path string) (map[string]BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	baseBy := make(map[string]BenchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	return baseBy, nil
}

// benchArms are the processes compared per point in the sweep
// benchmark, mirroring the multi-arm compare/ablation experiments.
func benchArms() []sim.Arm {
	return []sim.Arm{
		sim.VertexArm("eprocess", func(g *graph.Graph, r *rng.Rand, start int) walk.Process {
			return walk.NewEProcess(g, r, nil, start)
		}),
		sim.VertexArm("rwc(2)", func(g *graph.Graph, r *rng.Rand, start int) walk.Process {
			return walk.NewChoice(g, r, 2, start)
		}),
		sim.VertexArm("vprocess", func(g *graph.Graph, r *rng.Rand, start int) walk.Process {
			return walk.NewVProcess(g, r, start)
		}),
	}
}

// sweepPlan builds the multi-point multi-arm benchmark sweep. If
// shared is true the arms of a point share one frozen graph per trial
// (the SweepPlan design); otherwise every arm becomes its own
// single-arm point that regenerates the graph — the shape every
// comparison experiment had before the sweep runner existed.
func sweepPlan(points, n, d, trials, workers int, shared bool) *sim.SweepPlan {
	plan := &sim.SweepPlan{Config: sim.Config{Seed: 1, Trials: trials, Workers: workers}}
	gf := func(r *rand.Rand) (*graph.Graph, error) { return gen.RandomRegularSW(r, n, d) }
	for p := 0; p < points; p++ {
		if shared {
			plan.Points = append(plan.Points, sim.PointSpec{
				Key:   fmt.Sprintf("bench point %d", p),
				Salt:  sim.Salt(uint64(p)),
				Graph: gf,
				Arms:  benchArms(),
			})
			continue
		}
		for ai, arm := range benchArms() {
			plan.Points = append(plan.Points, sim.PointSpec{
				Key:   fmt.Sprintf("bench point %d arm %d", p, ai),
				Salt:  sim.Salt(uint64(p), uint64(ai)),
				Graph: gf,
				Arms:  []sim.Arm{arm},
			})
		}
	}
	return plan
}

// benchSweep times the same workload in the BENCH_1-era shape and as
// one point-parallel, graph-reusing sweep, reporting the best of three
// runs each. The baseline is a faithful emulation of the old runner:
// each (point, arm) batch regenerates its graph and runs as its own
// serial step, with only its trials parallelised across the worker
// pool — exactly what every experiment did before SweepPlan. Both
// sides get NumCPU workers, so the reported speedup isolates what the
// sweep design adds (graph reuse + cross-point parallelism) rather
// than re-crediting trial parallelism the old code already had.
func benchSweep(points, n, d, trials int) SweepResult {
	workers := runtime.NumCPU()
	res := SweepResult{
		Points:         points,
		ArmsPerPoint:   len(benchArms()),
		TrialsPerPoint: trials,
		N:              n,
		Degree:         d,
		Workers:        workers,
	}
	best := func(run func()) float64 {
		b := math.Inf(1)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			run()
			if s := time.Since(start).Seconds(); s < b {
				b = s
			}
		}
		return b
	}
	res.BaselineSeconds = best(func() {
		// One single-arm plan per (point, arm), run back to back: batch
		// boundaries are serial, trials within a batch are parallel.
		full := sweepPlan(points, n, d, trials, workers, false)
		for i := range full.Points {
			batch := &sim.SweepPlan{Config: full.Config, Points: full.Points[i : i+1]}
			if _, err := batch.Run(); err != nil {
				panic(err)
			}
		}
	})
	res.SweepSeconds = best(func() {
		if _, err := sweepPlan(points, n, d, trials, workers, true).Run(); err != nil {
			panic(err)
		}
	})
	res.Speedup = res.BaselineSeconds / res.SweepSeconds
	return res
}

// benchServe boots a serve.Server on a loopback TCP listener and
// measures the request path end to end: one cold compute, the
// cache-hit steady state (median of benchReps testing.Benchmark
// runs, every response checked byte-identical to the cold bytes),
// and an 8-way fan-in of identical cold requests whose run count is
// read back from the server's own run histogram — the benchmark
// fails loudly if single-flight ever lets a duplicate sweep through.
func benchServe(expName string, trials, fanIn int) ServeResult {
	s := serve.New(serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	defer func() {
		s.Drain()
		hs.Close()
	}()
	base := "http://" + ln.Addr().String()

	get := func(url string) []byte {
		resp, err := http.Get(url)
		if err != nil {
			panic(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			panic(err)
		}
		if resp.StatusCode != http.StatusOK {
			panic(fmt.Sprintf("bench serve: %s: %s: %s", url, resp.Status, body))
		}
		return body
	}
	// Completed runs so far, from the daemon's own latency histogram —
	// the one counter that only moves when an experiment actually ran
	// (cache hits and single-flight joins leave it alone).
	runsTotal := func() int {
		for _, line := range strings.Split(string(get(base+"/metrics")), "\n") {
			if v, ok := strings.CutPrefix(line, "reprod_run_seconds_count "); ok {
				n, err := strconv.Atoi(strings.TrimSpace(v))
				if err != nil {
					panic(err)
				}
				return n
			}
		}
		panic("bench serve: reprod_run_seconds_count missing from /metrics")
	}

	res := ServeResult{Exp: expName, Trials: trials, FanIn: fanIn}
	url := fmt.Sprintf("%s/v1/run?exp=%s&seed=41&trials=%d", base, expName, trials)
	start := time.Now()
	cold := get(url)
	res.ColdMs = float64(time.Since(start).Nanoseconds()) / 1e6
	res.Hit = run("ServeCacheHit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !bytes.Equal(get(url), cold) {
				b.Fatal("cache hit differs from cold response")
			}
		}
	})
	if res.Hit.NsPerOp > 0 {
		res.ColdOverHitX = res.ColdMs * 1e6 / res.Hit.NsPerOp
	}

	// Fan-in at a fresh key: every request arrives before the bytes
	// exist, so all are misses, exactly one may run.
	fanURL := fmt.Sprintf("%s/v1/run?exp=%s&seed=43&trials=%d", base, expName, trials)
	runs0 := runsTotal()
	shared0 := s.Metrics().SharedRuns.Load()
	bodies := make([][]byte, fanIn)
	var wg sync.WaitGroup
	start = time.Now()
	for i := 0; i < fanIn; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i] = get(fanURL)
		}(i)
	}
	wg.Wait()
	res.FanInWallMs = float64(time.Since(start).Nanoseconds()) / 1e6
	res.FanInRuns = runsTotal() - runs0
	res.FanInShared = int(s.Metrics().SharedRuns.Load() - shared0)
	for i := 1; i < fanIn; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			panic("bench serve: fan-in responses diverge")
		}
	}
	if res.FanInRuns != 1 {
		panic(fmt.Sprintf("bench serve: %d-way fan-in ran the experiment %d times, want 1", fanIn, res.FanInRuns))
	}
	return res
}

func mustRegular(n, d int, seed int64) *graph.Graph {
	g, err := gen.RandomRegularSW(rand.New(rand.NewSource(seed)), n, d)
	if err != nil {
		panic(err)
	}
	return g
}

// measureFootprint builds one cover trial's complete hot state and
// measures it: live heap growth for the resident-bytes metric, and the
// allocation totals for build-plus-first-cover as the peak-alloc
// profile (steady-state trials allocate nothing; construction is the
// peak).
func measureFootprint(n, d int) FootprintResult {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := mustRegular(n, d, 31)
	g.Freeze()
	e := walk.NewEProcess(g, rng.NewXoshiro256(32), nil, 0)
	var sc walk.CoverScratch
	if _, err := sc.VertexCoverSteps(e, 0); err != nil {
		panic(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	res := FootprintResult{
		N:             n,
		Degree:        d,
		HalfBytes:     int(unsafe.Sizeof(graph.Half{})),
		HeapBytes:     heap,
		BytesPerHalf:  float64(heap) / float64(2*g.M()),
		PeakAllocObjs: int64(after.Mallocs) - int64(before.Mallocs),
		PeakAllocByte: int64(after.TotalAlloc) - int64(before.TotalAlloc),
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(&sc)
	runtime.KeepAlive(g)
	return res
}

// benchChurn measures the dynamic engine against the static step
// numbers already in report.Benchmarks (staticStepNs is the measured
// EProcessStep median).
func benchChurn(g *graph.Graph, d int, staticStepNs float64) ChurnResult {
	const rate = 0.01
	res := ChurnResult{N: g.N(), Degree: d, ChurnRate: rate}
	res.DynStepZero = run("DynEProcessStepZeroChurn", func(b *testing.B) {
		o := graph.NewOverlay(g)
		e := walk.NewEProcessOn(o, rng.NewXoshiro256(3), nil, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
	res.DynStepChurn = run("DynEProcessStepChurn", func(b *testing.B) {
		o := graph.NewOverlay(g)
		r := rng.NewRand(rng.NewXoshiro256(5))
		e := walk.NewEProcessOn(o, r, nil, 0)
		sched := sim.ChurnSchedule{Fail: rate, Repair: rate}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sched.Step(o, r)
			e.Step()
		}
	})
	res.OverlayMutate = run("OverlayRemoveRestore", func(b *testing.B) {
		o := graph.NewOverlay(g)
		r := rng.NewXoshiro256(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := o.LiveEdgeAt(r.Intn(o.LiveEdges()))
			if err := o.RemoveEdge(id); err != nil {
				b.Fatal(err)
			}
			if err := o.RestoreEdge(id); err != nil {
				b.Fatal(err)
			}
		}
	})
	if staticStepNs > 0 {
		res.DynOverheadPct = (res.DynStepZero.NsPerOp/staticStepNs - 1) * 100
	}
	if res.DynStepZero.NsPerOp > 0 {
		res.ChurnPenaltyPct = (res.DynStepChurn.NsPerOp/res.DynStepZero.NsPerOp - 1) * 100
	}
	return res
}

func main() {
	out := flag.String("o", "BENCH_1.json", "output JSON path")
	n := flag.Int("n", 10000, "vertices for step benchmarks")
	d := flag.Int("d", 4, "degree for benchmark graphs")
	coverN := flag.Int("cover-n", 5000, "vertices for the cover benchmark")
	trials := flag.Int("trials", 5, "trials for the cover metric")
	sweepPoints := flag.Int("sweep-points", 8, "points in the sweep benchmark")
	sweepN := flag.Int("sweep-n", 2000, "vertices per point in the sweep benchmark")
	largeN := flag.Int("large-n", 100000, "vertices for the large-n cover section")
	reps := flag.Int("reps", benchReps, "repetitions per benchmark (median reported)")
	compare := flag.String("compare", "", "baseline BENCH_*.json: print interleaved A/B deltas instead of writing a report")
	compareRounds := flag.Int("compare-rounds", 3, "interleaved rounds in -compare mode (min reported)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "bench: -reps must be at least 1")
		os.Exit(2)
	}
	benchReps = *reps

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	// stopProfiles flushes both profiles; called on every exit path that
	// should produce them (os.Exit skips defers, so exits are explicit).
	stopProfiles := func() {
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			f.Close()
		}
	}

	stepGraph := mustRegular(*n, *d, 1)
	coverGraph := mustRegular(*coverN, *d, 9)

	if *compare != "" {
		code := runCompare(stepBenches(stepGraph, coverGraph), *compare, *compareRounds)
		stopProfiles()
		os.Exit(code)
	}

	report := Report{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		GOOS:      runtime.GOOS,
		NumCPU:    runtime.NumCPU(),
	}

	for _, nb := range stepBenches(stepGraph, coverGraph) {
		report.Benchmarks = append(report.Benchmarks, run(nb.name, nb.fn))
	}

	coverBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan := sim.SweepPlan{
				Config: sim.Config{Seed: 1, Trials: *trials},
				Points: []sim.PointSpec{{
					Key:   "cover",
					Salt:  sim.Salt(1),
					Graph: func(r *rand.Rand) (*graph.Graph, error) { return gen.RandomRegularSW(r, *coverN, *d) },
					Arms: []sim.Arm{sim.CoverArm("cover", func(g *graph.Graph, r *rng.Rand, start int) walk.Process {
						return walk.NewEProcess(g, r, nil, start)
					})},
				}},
			}
			points, err := plan.Run()
			if err != nil {
				b.Fatal(err)
			}
			res := points[0].Arms[0]
			report.Cover = CoverResult{
				N:               *coverN,
				Degree:          *d,
				Trials:          *trials,
				MeanVertexSteps: res.VertexStats.Mean,
				MeanEdgeSteps:   res.EdgeStats.Mean,
				VertexStepsPerN: res.VertexStats.Mean / float64(*coverN),
			}
		}
	})
	report.Cover.WallSecondsTotal = coverBench.T.Seconds() / float64(coverBench.N)
	report.Sweep = benchSweep(*sweepPoints, *sweepN, *d, *trials)
	report.Footprint = measureFootprint(*coverN, *d)
	report.Churn = benchChurn(stepGraph, *d, report.Benchmarks[0].NsPerOp)
	report.Serve = benchServe("eq3", 2, 8)

	// Large-n section: full covers on a graph whose hot state dwarfs
	// mid-level caches. The footprint probe runs first (it builds and
	// frees its own hot state for a clean heap delta) so the two large
	// graphs are never resident at the same time; the cover benchmark's
	// graph is then built once outside the timed loop.
	report.LargeN = LargeNResult{
		N:         *largeN,
		Degree:    *d,
		Footprint: measureFootprint(*largeN, *d),
	}
	largeGraph := mustRegular(*largeN, *d, 17)
	largeGraph.Freeze()
	report.LargeN.Cover = run("EProcessFullVertexCoverLargeN", func(b *testing.B) {
		e := walk.NewEProcess(largeGraph, rng.NewXoshiro256(18), nil, 0)
		var sc walk.CoverScratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Reset(0)
			if _, err := sc.VertexCoverSteps(e, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	for _, b := range report.Benchmarks {
		fmt.Printf("  %-32s %12.2f ns/op %8d B/op %6d allocs/op\n", b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
	}
	fmt.Printf("  cover n=%d d=%d: %.0f vertex steps (%.2f·n), %.0f edge steps\n",
		report.Cover.N, report.Cover.Degree, report.Cover.MeanVertexSteps,
		report.Cover.VertexStepsPerN, report.Cover.MeanEdgeSteps)
	fmt.Printf("  sweep %d points × %d arms × %d trials (n=%d d=%d): per-arm-serial %.3fs, shared-graph ×%d workers %.3fs (%.2fx)\n",
		report.Sweep.Points, report.Sweep.ArmsPerPoint, report.Sweep.TrialsPerPoint,
		report.Sweep.N, report.Sweep.Degree, report.Sweep.BaselineSeconds,
		report.Sweep.Workers, report.Sweep.SweepSeconds, report.Sweep.Speedup)
	fmt.Printf("  footprint n=%d: sizeof(Half)=%dB, hot state %.0f KiB (%.1f B/half), build+cover %d allocs\n",
		report.Footprint.N, report.Footprint.HalfBytes, float64(report.Footprint.HeapBytes)/1024,
		report.Footprint.BytesPerHalf, report.Footprint.PeakAllocObjs)
	fmt.Printf("  churn n=%d p=%g: dyn step %.2f ns (+%.1f%% vs static), churned %.2f ns (+%.1f%%), mutate %.2f ns\n",
		report.Churn.N, report.Churn.ChurnRate, report.Churn.DynStepZero.NsPerOp,
		report.Churn.DynOverheadPct, report.Churn.DynStepChurn.NsPerOp,
		report.Churn.ChurnPenaltyPct, report.Churn.OverlayMutate.NsPerOp)
	fmt.Printf("  serve %s trials=%d: cold %.2f ms, cache hit %.1f µs (%.0fx), %d-way fan-in %d run %d joins in %.2f ms\n",
		report.Serve.Exp, report.Serve.Trials, report.Serve.ColdMs,
		report.Serve.Hit.NsPerOp/1e3, report.Serve.ColdOverHitX,
		report.Serve.FanIn, report.Serve.FanInRuns, report.Serve.FanInShared, report.Serve.FanInWallMs)
	fmt.Printf("  large-n n=%d: cover %.2f ms/op, hot state %.1f MiB (%.1f B/half)\n",
		report.LargeN.N, report.LargeN.Cover.NsPerOp/1e6,
		float64(report.LargeN.Footprint.HeapBytes)/(1<<20), report.LargeN.Footprint.BytesPerHalf)
	stopProfiles()
}
