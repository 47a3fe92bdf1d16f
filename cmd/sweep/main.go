// Command sweep runs any experiment from the sim registry (the paper's
// quantitative claims plus Figure 1 — see EXPERIMENTS.md, or `sweep
// -list` for the authoritative, self-describing index) at a chosen
// scale and prints the resulting tables.
//
//	sweep -exp all                  # every experiment, CI scale
//	sweep -exp thm1,radzik -scale 4 # selected experiments, larger n
//	sweep -list                     # list experiment names
//	sweep -exp all -json out/       # also dump one JSON Result per experiment
//	sweep -exp all -report r.md     # also write every table as one markdown report
//	sweep -exp all -v               # progress, wall time and peak RSS on stderr
//	sweep -exp fig1 -scale 64 -rng mt19937  # Figure 1 at the paper's n, on its generator
//
// The -report document is a pure function of the flags and the
// registry, so a resumed or merged run writes the same bytes as an
// uninterrupted one. -rng selects the generator family (xoshiro,
// mt19937 — the Mersenne Twister of the paper's Python experiments —
// or splitmix); like -seed it changes every result.
//
// Within one process, every experiment is a point-level sweep: all
// (point, trial) units share one worker pool (-workers), and results
// are byte-identical for any worker count because every seed is a pure
// function of -seed (see the seed-derivation contract in internal/sim).
// That same property makes sharding across processes safe: -shard i/m
// runs the i-th of m contiguous blocks of the selected experiments, so
// a large sweep can be split over machines; every table a shard prints
// is byte-identical to the same table in the unsharded run, and the
// shards together cover exactly the selected set, in order:
//
//	sweep -exp all -scale 16 -shard 0/4   # machine 0 of 4
//	sweep -exp all -scale 16 -shard 1/4   # machine 1 of 4 ...
//
// When a single experiment outgrows one machine, -shard i/m@points
// splits below the experiment level: each process runs a contiguous
// block of every selected experiment's (point, trial) unit space and
// journals it under -checkpoint (required; no tables are printed), and
// -merge stitches the finished shard journals into the canonical
// tables and JSON — byte-identical to an unsharded run:
//
//	sweep -exp scalecover -scale 64 -shard 0/2@points -checkpoint a   # machine A
//	sweep -exp scalecover -scale 64 -shard 1/2@points -checkpoint b   # machine B
//	sweep -exp scalecover -scale 64 -merge a,b -json out/             # anywhere
//
// An interrupt (Ctrl-C) cancels the run promptly: in-flight units
// finish, queued work is dropped, and the process exits with an error.
// With -checkpoint DIR every completed unit is journaled under
// DIR/<exp>/ as it finishes (checksummed records appended and fsync'd
// to the run's own segment beside an fsync'd manifest), so an
// interrupted run loses at most its in-flight units;
// re-running the same command with -resume validates the journals
// against the current plan (mismatched or corrupted journals are
// rejected, never silently resumed) and re-runs only the missing
// units. Checkpoints are workers-independent, like the tables:
//
//	sweep -exp all -scale 16 -checkpoint ckpt          # ... killed
//	sweep -exp all -scale 16 -checkpoint ckpt -resume  # picks up where it died
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks a command-line usage mistake — inconsistent flags, a
// malformed shard spec — as opposed to a failed run. main exits 2 for
// usage errors (the conventional usage exit code), 1 otherwise, so
// fleet scripts and process managers can tell a bad invocation from a
// genuine failure.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// exitCode maps an error from run to the process exit code.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

// shardSpec is a parsed -shard flag: the shard coordinates plus the
// partition level — contiguous experiment blocks ("i/m", the default)
// or the point-level (point, trial) unit space ("i/m@points").
type shardSpec struct {
	sim.Shard
	points bool
}

// parseShard parses "i/m" or "i/m@points" with 0 ≤ i < m, rejecting
// trailing garbage (a silently misparsed shard spec would leave part of
// a multi-machine sweep unrun).
func parseShard(s string) (spec shardSpec, err error) {
	body := s
	if base, suffix, ok := strings.Cut(s, "@"); ok {
		if suffix != "points" {
			return spec, fmt.Errorf("bad -shard %q (want 'i/m' or 'i/m@points')", s)
		}
		spec.points = true
		body = base
	}
	is, ms, ok := strings.Cut(body, "/")
	if !ok {
		return spec, fmt.Errorf("bad -shard %q (want 'i/m' or 'i/m@points')", s)
	}
	if spec.Index, err = strconv.Atoi(is); err != nil {
		return spec, fmt.Errorf("bad -shard %q: %w", s, err)
	}
	if spec.Count, err = strconv.Atoi(ms); err != nil {
		return spec, fmt.Errorf("bad -shard %q: %w", s, err)
	}
	if spec.Count < 1 || spec.Index < 0 || spec.Index >= spec.Count {
		return spec, fmt.Errorf("bad -shard %q: need 0 <= i < m", s)
	}
	return spec, nil
}

// shardSelect returns the idx-th of count contiguous blocks of exps.
// Blocks preserve order and partition the input: concatenating the
// outputs of shards 0..count-1 yields the experiments of the unsharded
// run in the unsharded order.
func shardSelect(exps []sim.Experiment, idx, count int) []sim.Experiment {
	lo := idx * len(exps) / count
	hi := (idx + 1) * len(exps) / count
	return exps[lo:hi]
}

// selectExperiments resolves the -exp flag against the registry: "all"
// is the full registry in canonical order, otherwise a comma-separated
// name list resolved through sim.Lookup, in the order given.
func selectExperiments(expList string) ([]sim.Experiment, error) {
	if expList == "all" {
		return sim.Registry(), nil
	}
	var selected []sim.Experiment
	for _, name := range strings.Split(expList, ",") {
		name = strings.TrimSpace(name)
		e, ok := sim.Lookup(name)
		if !ok {
			return nil, usagef("unknown experiment %q (known: %s)", name, strings.Join(sim.Names(), ", "))
		}
		selected = append(selected, e)
	}
	return selected, nil
}

// cliFlags are the flag values validate checks, separated from run so
// the CLI tests can pin the usage-error surface directly.
type cliFlags struct {
	shard, ckDir, merge, jsonDir, report, rng string
	trials                                    int
	resume                                    bool
	args                                      []string // positional arguments left after the flags
}

// validate rejects bad flag values and inconsistent combinations fast,
// with usage errors (exit 2), and returns the parsed shard spec and RNG
// kind. Failing before any experiment runs matters for fleets: a
// misparsed shard spec or a resume pointed at nothing would otherwise
// burn machine-hours or silently journal to a fresh directory.
func (f cliFlags) validate() (shardSpec, rng.Kind, error) {
	var spec shardSpec
	var err error
	if len(f.args) > 0 {
		// Flag parsing stops at the first non-flag, so a flag that lost
		// its value (-json -seed 1 makes "-seed" the directory) would
		// otherwise drop every flag after it without a word.
		return spec, 0, usagef("unexpected argument %q: sweep takes only flags", f.args[0])
	}
	if f.shard != "" {
		if spec, err = parseShard(f.shard); err != nil {
			return spec, 0, usageError{err}
		}
	}
	kind, err := rng.ParseKind(f.rng)
	if err != nil {
		return spec, 0, usageError{err}
	}
	if f.trials < 0 {
		return spec, 0, usagef("-trials %d is negative", f.trials)
	}
	if f.resume && f.ckDir == "" {
		return spec, 0, usagef("-resume needs -checkpoint to name the journal directory")
	}
	if f.merge != "" && (f.shard != "" || f.ckDir != "") {
		return spec, 0, usagef("-merge reads finished shard journals; it cannot be combined with -shard or -checkpoint")
	}
	if spec.points && f.ckDir == "" {
		return spec, 0, usagef("-shard i/m@points needs -checkpoint: the journal is the shard's only output")
	}
	if spec.points && (f.jsonDir != "" || f.report != "") {
		return spec, 0, usagef("-shard i/m@points journals units only and writes no Results; use -json or -report with -merge after all shards finish")
	}
	return spec, kind, nil
}

// progressOpts returns RunOptions that report (units done / total) for
// the named experiment on stderr when verbose is set.
func progressOpts(name string, verbose bool) sim.RunOptions {
	if !verbose {
		return sim.RunOptions{}
	}
	return sim.StderrProgress(name)
}

// reportUsage prints the run's wall time since start and, where the
// platform reports it, the process's peak RSS on stderr, so paper-scale
// runs measure themselves without an external timer.
func reportUsage(start time.Time) {
	line := fmt.Sprintf("sweep: wall %.2fs", time.Since(start).Seconds())
	if mb, ok := peakRSSMB(); ok {
		line += fmt.Sprintf(", peak RSS %.1f MB", mb)
	}
	fmt.Fprintln(os.Stderr, line)
}

// printResult writes one experiment's table, notes, optional JSON dump
// and, when md is non-nil, its markdown report section — the shared
// output path of plain, resumed and merged runs.
func printResult(res *sim.Result, jsonDir string, md *strings.Builder) error {
	if err := res.Table.WriteText(os.Stdout); err != nil {
		return err
	}
	for _, note := range res.Notes {
		fmt.Println(note)
	}
	if md != nil {
		md.WriteString(res.Markdown())
		if len(res.Notes) > 0 {
			for _, note := range res.Notes {
				fmt.Fprintf(md, "- %s\n", note)
			}
			md.WriteString("\n")
		}
	}
	if jsonDir != "" {
		if err := res.WriteFile(filepath.Join(jsonDir, res.Name+".json")); err != nil {
			return err
		}
	}
	return nil
}

func run() error {
	var (
		expList = flag.String("exp", "all", "comma-separated experiment names, or 'all'")
		scale   = flag.Int("scale", 1, "problem size multiplier (1 = CI scale)")
		trials  = flag.Int("trials", 5, "trials per point")
		seed    = flag.Uint64("seed", 2012, "master seed")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		shard   = flag.String("shard", "", "run shard i of m, as 'i/m' (contiguous blocks of the selected experiments) or 'i/m@points' (point-level units within every experiment; requires -checkpoint)")
		ckDir   = flag.String("checkpoint", "", "journal completed (point, trial) units under DIR/<exp>/ so an interrupted run can be resumed")
		resume  = flag.Bool("resume", false, "with -checkpoint: restore completed units from the existing journals and run only the rest")
		merge   = flag.String("merge", "", "comma-separated -checkpoint dirs of point-level shards; stitch their journals into the canonical tables without re-running walks")
		list    = flag.Bool("list", false, "list experiments and exit")
		jsonDir = flag.String("json", "", "also write one JSON Result per experiment into this directory")
		report  = flag.String("report", "", "also write every table and note as one markdown report to this file")
		rngName = flag.String("rng", "xoshiro", "generator family: xoshiro, mt19937 (the paper's Mersenne Twister) or splitmix")
		verbose = flag.Bool("v", false, "report sweep progress (units done/total) and, at exit, wall time and peak RSS on stderr")
	)
	flag.Parse()
	spec, kind, err := cliFlags{shard: *shard, ckDir: *ckDir, merge: *merge, jsonDir: *jsonDir,
		report: *report, rng: *rngName, trials: *trials, resume: *resume, args: flag.Args()}.validate()
	if err != nil {
		return err
	}

	if *list {
		for _, e := range sim.Registry() {
			fmt.Printf("%-8s %s\n", e.Name, e.Desc)
		}
		return nil
	}
	if *verbose {
		defer reportUsage(time.Now())
	}

	selected, err := selectExperiments(*expList)
	if err != nil {
		return err
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			return err
		}
	}

	// SIGTERM joins SIGINT so fleet and process managers (and `sweepd`
	// smoke scripts) get the same graceful drain an interactive Ctrl-C
	// does: in-flight units finish and are journaled, instead of the
	// journal tail being lost to a hard kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := sim.ExpConfig{Seed: *seed, Trials: *trials, Scale: *scale, Workers: *workers, Kind: kind}

	// Point-level sharding: run each selected experiment's shard of the
	// (point, trial) unit space and journal it; no tables are printed —
	// a strict subset of the units cannot be aggregated. Merge the
	// shards' -checkpoint dirs afterwards with -merge.
	if spec.points {
		for _, e := range selected {
			opts := progressOpts(e.Name, *verbose)
			opts.Checkpoint = &sim.Checkpoint{Dir: filepath.Join(*ckDir, e.Name), Resume: *resume}
			if err := e.RunShard(ctx, cfg, spec.Shard, opts); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			fmt.Printf("%s: journaled point shard %d/%d into %s\n", e.Name, spec.Index, spec.Count, opts.Checkpoint.Dir)
		}
		return nil
	}

	if *shard != "" {
		selected = shardSelect(selected, spec.Index, spec.Count)
	}
	// Merge mode stitches the per-experiment journals of finished
	// point-level shards into the canonical output.
	var mergeParents []string
	for _, d := range strings.Split(*merge, ",") {
		if d = strings.TrimSpace(d); d != "" {
			mergeParents = append(mergeParents, d)
		}
	}
	var md *strings.Builder
	if *report != "" {
		md = &strings.Builder{}
		md.WriteString("# Paper reproduction report\n\n")
	}
	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		opts := progressOpts(e.Name, *verbose)
		var res *sim.Result
		if *merge != "" {
			dirs := make([]string, len(mergeParents))
			for j, p := range mergeParents {
				dirs[j] = filepath.Join(p, e.Name)
			}
			res, err = sim.MergeShards(ctx, e, cfg, dirs, opts)
		} else {
			if *ckDir != "" {
				opts.Checkpoint = &sim.Checkpoint{Dir: filepath.Join(*ckDir, e.Name), Resume: *resume}
			}
			res, err = e.Run(ctx, cfg, opts)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if err := printResult(res, *jsonDir, md); err != nil {
			return err
		}
	}
	if md != nil {
		return os.WriteFile(*report, []byte(md.String()), 0o644)
	}
	return nil
}
