package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// This file is the experiment registry: the single entry point to the
// paper's whole experimental record. Every experiment in experiments*.go
// and figure1.go registers itself at init time under a stable name, its
// CLI description, and its seed-salt namespace, and exposes its sweep
// through a uniform Plan function. CLIs (cmd/sweep, cmd/sweepd,
// cmd/reprod) and library users (package repro) enumerate Registry()
// instead of maintaining name lists by hand, and run any experiment
// through the context-aware Experiment.Run / RunExperiment.

// Finish aggregates a completed plan's points into the experiment's
// uniform Result (typed rows + rendered table + optional notes).
type Finish func(points []PointResult) (*Result, error)

// PlanFunc lays out an experiment's sweep for a configuration without
// running it. The returned plan carries every point's salt, so seed
// audits (Seeds, the pairwise-distinctness regression test) can
// enumerate the registry without paying for any walks.
type PlanFunc func(cfg ExpConfig) (*SweepPlan, Finish, error)

// Experiment is one registered experiment of the paper's record.
type Experiment struct {
	// Name is the stable registry key ("thm1", "fig1", ...) used by the
	// CLIs' -exp selectors and by Lookup.
	Name string
	// Desc is the one-line human description shown by -list.
	Desc string
	// Salt is the experiment's seed-salt namespace constant: the first
	// word of every point salt the experiment derives. Namespaces are
	// unique across the registry, which (with the Salt folding) keeps
	// seed streams of distinct experiments disjoint, and their iota
	// order doubles as the registry's canonical presentation order.
	Salt uint64
	// Plan lays out the experiment's sweep; see PlanFunc.
	Plan PlanFunc
}

// Run plans and executes the experiment under ctx, then aggregates the
// points into a Result stamped with the configuration (master seed,
// trials, scale — everything needed to reproduce it; Workers is
// deliberately absent because results are worker-invariant).
// Cancellation semantics are SweepPlan.RunContext's: prompt, drained,
// leak-free, ctx.Err() returned. When opts.Checkpoint is set, completed
// (point, trial) units are journaled as they finish and — with
// Checkpoint.Resume — restored from an earlier interrupted run, whose
// resumed Result is byte-identical to an uninterrupted one.
func (e Experiment) Run(ctx context.Context, cfg ExpConfig, opts RunOptions) (*Result, error) {
	plan, finish, err := e.Plan(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: plan: %w", e.Name, err)
	}
	d := cfg.withDefaults()
	points, err := plan.RunContext(ctx, e.checkpointOpts(d, opts))
	if err != nil {
		return nil, err
	}
	res, err := finish(points)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", e.Name, err)
	}
	res.Name, res.Seed, res.Trials, res.Scale = e.Name, d.Seed, d.Trials, d.Scale
	return res, nil
}

// RunShard plans the experiment and executes only the given point-level
// shard of its (point, trial) unit space, journaling every completed
// unit into opts.Checkpoint (required). No Result is produced — a
// strict subset of the units cannot be aggregated; MergeShards stitches
// the journals of all shards into the canonical Result, byte-identical
// to an unsharded Run.
func (e Experiment) RunShard(ctx context.Context, cfg ExpConfig, shard Shard, opts RunOptions) error {
	plan, _, err := e.Plan(cfg)
	if err != nil {
		return fmt.Errorf("sim: %s: plan: %w", e.Name, err)
	}
	return plan.RunShard(ctx, shard, e.checkpointOpts(cfg.withDefaults(), opts))
}

// UnitCount returns the size of the experiment's canonical
// (point, trial) unit space under cfg — the space PlanShard partitions
// into blocks and checkpoint journals index into. The distributed
// coordinator (internal/dist) uses it to enumerate lease blocks without
// running any walks.
func (e Experiment) UnitCount(cfg ExpConfig) (int, error) {
	plan, _, err := e.Plan(cfg)
	if err != nil {
		return 0, fmt.Errorf("sim: %s: plan: %w", e.Name, err)
	}
	return plan.UnitCount(), nil
}

// checkpointOpts stamps opts.Checkpoint with the experiment's registry
// identity (manifest key: name, salt namespace, scale) unless the
// caller already set one. The caller's Checkpoint is not mutated.
func (e Experiment) checkpointOpts(d ExpConfig, opts RunOptions) RunOptions {
	if opts.Checkpoint == nil {
		return opts
	}
	ck := *opts.Checkpoint
	if ck.Name == "" {
		ck.Name, ck.Salt = e.Name, e.Salt
	}
	if ck.Scale == 0 {
		ck.Scale = d.Scale
	}
	opts.Checkpoint = &ck
	return opts
}

// registry is keyed by experiment name; filled by init-time register
// calls across experiments*.go and figure1.go.
var registryByName = map[string]Experiment{}

// register adds an experiment at init time. Registration bugs (duplicate
// names, reused salt namespaces, missing pieces) are programmer errors
// caught the first time any test or CLI touches the package, so they
// panic rather than error.
func register(e Experiment) {
	switch {
	case e.Name == "" || e.Desc == "" || e.Plan == nil || e.Salt == 0:
		panic(fmt.Sprintf("sim: incomplete experiment registration %+v", e))
	}
	if prev, dup := registryByName[e.Name]; dup {
		panic(fmt.Sprintf("sim: duplicate experiment name %q (salts %d and %d)", e.Name, prev.Salt, e.Salt))
	}
	for _, other := range registryByName {
		if other.Salt == e.Salt {
			panic(fmt.Sprintf("sim: experiments %q and %q share salt namespace %d", other.Name, e.Name, e.Salt))
		}
	}
	registryByName[e.Name] = e
}

// Registry returns every registered experiment in canonical order: by
// seed-salt namespace, which follows the paper's claim order (thm1,
// radzik, ..., degseq) with Figure 1 last. The slice is freshly
// allocated; callers may reorder it.
func Registry() []Experiment {
	out := make([]Experiment, 0, len(registryByName))
	for _, e := range registryByName {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Salt < out[j].Salt })
	return out
}

// Names returns the registry's experiment names in canonical order.
func Names() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, e := range reg {
		names[i] = e.Name
	}
	return names
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	e, ok := registryByName[name]
	return e, ok
}

// RunExperiment runs the named experiment under ctx — the one-call
// library entry point re-exported as repro.RunExperiment.
func RunExperiment(ctx context.Context, name string, cfg ExpConfig) (*Result, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sim: unknown experiment %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return e.Run(ctx, cfg, RunOptions{})
}

// Result is the uniform outcome of one registry experiment: the typed
// rows its plan's finish step builds, the rendered table, and the
// reproduction stamp. Its JSON encoding (WriteJSON) is stable: a
// pure function of (experiment, master seed, trials, scale),
// byte-identical across Workers settings and scheduler interleavings.
type Result struct {
	// Name is the experiment's registry name.
	Name string `json:"name"`
	// Seed, Trials and Scale stamp the configuration that produced the
	// result. Workers is deliberately omitted: results don't depend on
	// it.
	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials"`
	Scale  int    `json:"scale"`
	// Rows is the experiment's typed row slice (e.g. []Theorem1Row for
	// "thm1"; "degseq" wraps rows and growth fit in a DegSeqResult).
	// After a JSON round trip it decodes as generic []any / map values.
	Rows any `json:"rows"`
	// Table is the rendered table of the rows.
	Table *Table `json:"table"`
	// Notes are extra human-readable lines printed after the table
	// (e.g. Figure 1's per-degree growth verdicts).
	Notes []string `json:"notes,omitempty"`
}

// WriteJSON serialises the result with a stable, indented encoding.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the result's JSON encoding to path — the shared
// -json implementation of cmd/sweep and cmd/sweepd.
func (r *Result) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// StderrProgress returns RunOptions whose Progress callback reports
// (units done / total) for the named experiment on stderr — the shared
// -v implementation of cmd/sweep and cmd/sweepd.
func StderrProgress(name string) RunOptions {
	return RunOptions{Progress: func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d units", name, done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}}
}

// ReadResult parses a result written by WriteJSON. Rows decodes to
// generic JSON values; Table round-trips exactly.
func ReadResult(rd io.Reader) (*Result, error) {
	var r Result
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("sim: decode result: %w", err)
	}
	return &r, nil
}

// adapt lifts a typed plan constructor — the (rows, table, error)
// finish shape every experiments*.go plan uses — into the registry's
// uniform PlanFunc.
func adapt[R any](plan func(ExpConfig) (*SweepPlan, func([]PointResult) (R, *Table, error))) PlanFunc {
	return func(cfg ExpConfig) (*SweepPlan, Finish, error) {
		p, fin := plan(cfg.withDefaults())
		return p, func(points []PointResult) (*Result, error) {
			rows, t, err := fin(points)
			if err != nil {
				return nil, err
			}
			return &Result{Rows: rows, Table: t}, nil
		}, nil
	}
}
