// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a given number of seconds, checks every output byte
// for byte, and prints one JSON result as the last line of its standard
// output. See README.md for the workloads, the metrics and what each
// layer metric should move. Run it from the checkout root through
// run.sh, which builds it:
//
//	bash perfbench/run.sh --workload registry --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything the benchmark writes in its checkout.
const buildDir = ".bench_build/perfbench"

// coldChildren is how many extra fresh processes measure the cold first
// pass; with the main process's own first pass, setup_s is a median of
// five.
const coldChildren = 4

// minPasses is the fewest measured passes a run makes, however short
// --seconds is.
const minPasses = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload *workload
	seed     uint64
	seconds  float64
	trace    bool
	work     string // scratch directory of this run
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: registry, walks or serve")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "how long to measure")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		coldPass = flag.Bool("cold-pass", false, "run one pass of the workload in this fresh process and print it as JSON (used by the benchmark itself)")
		record   = flag.String("record-digests", "", "FROM-TO: run one pass of every workload for each seed in the range and rewrite perfbench/digests.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *coldPass, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, coldPass bool, record string) error {
	if record != "" {
		return recordDigests(record)
	}
	w, ok := workloads()[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want registry, walks or serve)", name)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	o := options{workload: w, seed: seed, seconds: seconds, trace: trace == 1,
		work: filepath.Join(buildDir, fmt.Sprintf("work-%s-%d-%d", w.name, seed, os.Getpid()))}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.work)
	ctx := context.Background()
	if coldPass {
		p, err := runPass(ctx, w, seed, filepath.Join(o.work, "pass"), nil)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(p)
	}

	g, err := newGate(runID(w, seed))
	if err != nil {
		return err
	}
	t := newTracer()
	var res result
	var rec map[string]any
	if w.name == "serve" {
		res, rec, err = measureServe(ctx, o, g, t)
	} else {
		res, rec, err = measurePasses(ctx, o, g, t)
	}
	if err != nil {
		return err
	}
	if o.trace {
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
		if err := t.write(path); err != nil {
			return err
		}
		rec["trace_file"] = path
	}
	if err := g.save(runID(w, seed)); err != nil {
		return err
	}
	res.Attempted, res.Failed = g.attempted, g.failed
	res.Correct = g.failed == 0
	for _, p := range g.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	for k, v := range runRecord(w, seed) {
		rec[k] = v
	}
	rec["digests"] = g.source
	if err := printResult(rec, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}

// printResult prints the run record and then the result line.
func printResult(rec map[string]any, res result) error {
	for name := range res.Metrics {
		if !metricName.MatchString(name) {
			return fmt.Errorf("bad metric name %q", name)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"run_record": rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// measurePasses measures the registry and walks workloads: repeated
// passes over the workload's experiments in one process. Untraced, it
// reports the end-to-end metrics; traced, it alternates untraced and
// traced passes and reports the per-layer metrics of the traced ones.
func measurePasses(ctx context.Context, o options, g *gate, t *tracer) (result, map[string]any, error) {
	w := o.workload
	dir := filepath.Join(o.work, "pass")
	checkPass := func(p passOut) {
		for _, e := range p.Exps {
			var err error
			if e.Err != "" {
				err = errors.New(e.Err)
			}
			g.check(e.Name, e.Digest, err)
		}
	}
	// The first pass in this fresh process is cold.
	first, err := runPass(ctx, w, o.seed, dir, nil)
	if err != nil {
		return result{}, nil, err
	}
	checkPass(first)
	cold := []float64{first.Wall}
	if !o.trace {
		for i := 0; i < coldChildren; i++ {
			p, err := coldChild(o)
			if err != nil {
				return result{}, nil, err
			}
			checkPass(p)
			cold = append(cold, p.Wall)
		}
	}

	var walls, cpus, rss, tracedWalls []float64
	var layers []layerMetrics
	start := time.Now()
	for k := 0; ; k++ {
		traced := o.trace && k%2 == 1
		done := len(walls) >= minPasses && (!o.trace || len(tracedWalls) >= minPasses/2+1)
		if done && time.Since(start).Seconds() >= o.seconds {
			break
		}
		var pt *tracer
		if traced {
			pt = t
			t.setPass(k)
		}
		p, err := runPass(ctx, w, o.seed, dir, pt)
		if err != nil {
			return result{}, nil, err
		}
		checkPass(p)
		if !traced {
			walls = append(walls, p.Wall)
			cpus = append(cpus, p.CPU)
			rss = append(rss, p.RSS)
			continue
		}
		tracedWalls = append(tracedWalls, p.Wall)
		lm := passLayers(t.spans, selfTimes(t.spans), k)
		lm["sim.journal_files"] = float64(p.JournalFiles)
		lm["sim.journal_bytes"] = float64(p.JournalBytes)
		layers = append(layers, lm)
	}

	rec := map[string]any{"passes": len(walls), "traced_passes": len(tracedWalls), "cold_passes": len(cold),
		"wall_s_all": walls, "setup_s_all": cold}
	if o.trace {
		lm := medianLayers(layers)
		lm["trace.overhead_frac"] = median(tracedWalls)/median(walls) - 1
		return result{Metrics: layerResult(lm)}, rec, nil
	}
	return result{Metrics: map[string]metric{
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"peak_rss_mb": {median(rss), "MB"},
		"setup_s":     {median(cold), "s"},
	}}, rec, nil
}

// coldChild runs one pass of the workload in a fresh process of this
// binary and waits for it to end.
func coldChild(o options) (passOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return passOut{}, err
	}
	cmd := exec.Command(exe, "--cold-pass", "--workload", o.workload.name,
		"--seed", strconv.FormatUint(o.seed, 10))
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return passOut{}, fmt.Errorf("cold pass: %w", err)
	}
	var p passOut
	if err := json.Unmarshal(outb, &p); err != nil {
		return passOut{}, fmt.Errorf("cold pass output: %w", err)
	}
	return p, nil
}

// runRecord describes the machine and the code a result was measured
// on.
func runRecord(w *workload, seed uint64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      w.name,
		"seed":          seed,
		"scale":         w.scale,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
	}
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where there is no git commit.
// It is a label, not a check: unreadable entries are skipped.
func sourceDigest(root string) string {
	var all bytes.Buffer
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(&all, "%s %s\n", path, digestOf(data))
		return nil
	})
	return digestOf(all.Bytes())
}
