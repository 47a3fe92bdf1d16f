package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/walk"
)

// Seed-derivation contract
//
// Every random quantity in the experiment harness is a pure function of
// (master seed, point salt, trial index), derived exclusively through
// deriveSeed below. Call sites must not hand-mix seeds with ^/<</| —
// ad-hoc expressions have already produced one operator-precedence bug
// that made distinct experiment points share seeds. Point salts are
// built with Salt from a per-experiment namespace constant (saltTHM1,
// saltCOMPARE, ...) plus the point's identifying coordinates, and the
// sweep_test.go regression test asserts that every seed derived across
// every experiment's plan is pairwise distinct.

// mix64 is the SplitMix64 output finalizer (Steele, Lea, Flood): an
// avalanching bijection on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitMixGamma is SplitMix64's Weyl-sequence increment; absorbing each
// word with `mix64(h ^ (w + gamma))` keeps zero words from fixing the
// state the way a plain xor-fold would.
const splitMixGamma = 0x9e3779b97f4a7c15

// deriveSeed is the single audited seed-derivation function of the
// harness: it maps (master seed, point salt, trial index) to the seed
// of one concrete generator by absorbing the three words through the
// SplitMix64 finalizer. Distinct inputs give distinct, uncorrelated
// seeds up to the collision resistance of the mixer; the regression
// test in sweep_test.go checks distinctness over every derived seed of
// every experiment.
func deriveSeed(master, pointSalt, trial uint64) uint64 {
	h := mix64(master + splitMixGamma)
	h = mix64(h ^ (pointSalt + splitMixGamma))
	h = mix64(h ^ (trial + splitMixGamma))
	return h
}

// Salt folds the identifying coordinates of an experiment point into a
// point salt for deriveSeed. The first part is conventionally the
// experiment's namespace constant so that points of different
// experiments can never share a salt by writing the same coordinates.
func Salt(parts ...uint64) uint64 {
	h := mix64(uint64(len(parts)) + splitMixGamma)
	for _, p := range parts {
		h = mix64(h ^ (p + splitMixGamma))
	}
	return h
}

// Per-experiment salt namespaces. Every PointSpec salt starts with one
// of these, so seed streams are disjoint across experiments even when
// their points share coordinates (e.g. the same n sweep).
const (
	saltRun uint64 = iota + 1 // one-point test plans; holding slot 1 keeps every later namespace fixed
	saltTHM1
	saltRADZIK
	saltCOR2
	saltEQ3
	saltTHM3
	saltCOR4
	saltHCUBE
	saltSTAR
	saltRULEA
	saltP1P2
	saltGRW
	saltCOMPARE
	saltABLATION
	saltGROWTH
	saltBIAS
	saltEQ4
	saltLEMMA13
	saltPHASES
	saltDEGSEQ
	saltFIG1
	saltSCALECOVER
	saltPCF
	saltCHURN
)

// ArmFunc measures one arm of an experiment point on one trial. g is
// the trial's shared graph (read-only: the same instance is
// handed to every arm of the trial, a deterministic family's factory
// may hand it to every trial of the run, and at a KeepRep point trial
// 0's graph outlives the sweep as the representative instance), r is the
// arm's private generator, and sc is the worker's reusable cover
// scratch. The returned Measurement feeds the arm's Vertex/Edge
// summaries; arms with richer outputs return them in Measurement.Extra,
// which travels with the (point, trial) unit through checkpoint
// journals and shard merges.
// Arms must NOT smuggle results through closure-captured side arrays:
// a unit restored from a checkpoint is not re-run, so closure state
// would silently stay zero on a resumed or merged run.
type ArmFunc func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error)

// BatchArmFunc was the signature of an arm's batched form. It stays
// only because perfbench/passes.go still compiles against it; the
// runner never calls one. bt's type is *walk.Batch, written as the
// *struct{} that deprecated alias stands for, so that this module names
// no deprecated identifier.
//
// Deprecated: arms have one form, ArmFunc. Fresh Uniform-rule
// E-processes already take the cover drivers' fused loop through it.
type BatchArmFunc func(gs []*graph.Graph, rs []*rng.Rand, bt *struct{}, maxSteps int64) ([]Measurement, []error)

// Arm is one process (or measurement) compared on a point's shared
// per-trial graphs.
type Arm struct {
	Name string
	Run  ArmFunc
	// RunBatch is ignored by the runner, and nothing in this module
	// sets it; it stays only because perfbench/passes.go still compiles
	// against it.
	//
	// Deprecated: the runner measures every arm through Run.
	RunBatch BatchArmFunc
}

// CoverArm adapts a ProcessFactory into an arm measuring vertex and
// edge cover from a single trajectory.
func CoverArm(name string, pf ProcessFactory) Arm {
	return Arm{Name: name, Run: func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
		ct, err := sc.Cover(pf(g, r, 0), maxSteps)
		if err != nil {
			return Measurement{}, err
		}
		return Measurement{Vertex: float64(ct.Vertex), Edge: float64(ct.Edge)}, nil
	}}
}

// VertexArm adapts a ProcessFactory into an arm measuring vertex cover
// only (cheaper when the edge-cover tail is irrelevant).
func VertexArm(name string, pf ProcessFactory) Arm {
	return Arm{Name: name, Run: func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
		steps, err := sc.VertexCoverSteps(pf(g, r, 0), maxSteps)
		if err != nil {
			return Measurement{}, err
		}
		return Measurement{Vertex: float64(steps)}, nil
	}}
}

// PointSpec is one experiment point of a sweep: a graph family cell
// (one (n, d) value, one named family, ...) plus the arms compared on
// it. Each trial generates one graph and hands the same instance to
// every arm, so compared processes see identical instances and the
// generation cost is paid once per trial rather than once per arm. A
// family that reads no randomness pays it once per run: its factory
// (buildOnce) hands every trial one instance, which arms only read, as
// graphs are immutable.
type PointSpec struct {
	// Key names the point in error messages.
	Key string
	// Salt is the point's seed salt, built with Salt from the owning
	// experiment's namespace constant and the point coordinates.
	Salt uint64
	// Graph builds the trial's instance from the trial's private graph
	// generator, or returns the run's one instance of a deterministic
	// family.
	Graph GraphFactory
	// Arms are measured in order on the trial's shared graph.
	// A point may have zero arms when only the representative instance
	// is wanted (structural experiments, which set KeepRep).
	Arms []Arm
	// Trials overrides the plan-level trial count when positive.
	Trials int
	// MaxSteps overrides the plan-level step budget when positive.
	MaxSteps int64
	// KeepRep declares that the plan's Finish reads this point's
	// PointResult.Rep. Only declaring points keep their trial-0 graph
	// past its unit, and only they regenerate it when trial 0 was
	// restored from a journal. It is a plan-internal declaration: it
	// changes no result byte and is not part of the run identity.
	KeepRep bool
}

func (pt *PointSpec) trials(cfg Config) int {
	if pt.Trials > 0 {
		return pt.Trials
	}
	return cfg.Trials
}

func (pt *PointSpec) maxSteps(cfg Config) int64 {
	if pt.MaxSteps > 0 {
		return pt.MaxSteps
	}
	return cfg.MaxSteps
}

// graphSeed and armSeed are the only two derivation sites of the
// harness. The graph stream occupies arm slot 0 of the point's salt and
// the arms occupy slots 1..len(Arms), so every (point, arm, trial)
// triple owns a disjoint generator.
func (pt *PointSpec) graphSeed(cfg Config, trial int) uint64 {
	return deriveSeed(cfg.Seed, Salt(pt.Salt, 0), uint64(trial))
}

func (pt *PointSpec) armSeed(cfg Config, arm, trial int) uint64 {
	return deriveSeed(cfg.Seed, Salt(pt.Salt, uint64(arm)+1), uint64(trial))
}

// PointResult aggregates one point of a completed sweep.
type PointResult struct {
	// Key echoes the PointSpec.
	Key string
	// Rep is trial 0's graph — the representative instance for
	// structural post-processing (spectral gaps, girth, ℓ-bounds) — when
	// the PointSpec declares KeepRep, and nil otherwise. A random
	// family's other trial graphs are dropped with their units; a
	// deterministic family's one instance lives as long as its plan and
	// is built at most once per run. It is literally the graph arm
	// measurements ran on, not a re-rolled lookalike.
	Rep *graph.Graph
	// Arms holds one ArmResult per PointSpec arm, in order.
	Arms []ArmResult
}

// SweepPlan is a point-level sweep: a set of PointSpecs executed on one
// shared worker pool. The scheduling unit is a (point, trial) pair, so
// points run concurrently with each other as well as with their own
// trials — a sweep of many cheap points saturates the pool even when
// each point has few trials. Results are a pure function of the
// Config's master seed: every generator is derived via deriveSeed, so
// tables are byte-identical across Workers settings.
type SweepPlan struct {
	Config Config
	Points []PointSpec
}

// unit is one scheduling unit of a plan: one trial of one point. The
// canonical unit order — point-major, trial-minor, exactly the order
// Seeds() walks — indexes checkpoint journals and PlanShard blocks.
type unit struct{ point, trial int }

// unitList enumerates the plan's canonical (point, trial) unit
// sequence.
func (pl *SweepPlan) unitList(cfg Config) []unit {
	var units []unit
	for pi := range pl.Points {
		for t := 0; t < pl.Points[pi].trials(cfg); t++ {
			units = append(units, unit{pi, t})
		}
	}
	return units
}

// UnitCount returns the length of the plan's canonical (point, trial)
// unit sequence — the space PlanShard partitions and checkpoint
// journals index into.
func (pl *SweepPlan) UnitCount() int {
	cfg := pl.Config.withDefaults()
	total := 0
	for i := range pl.Points {
		total += pl.Points[i].trials(cfg)
	}
	return total
}

// PlanShard returns the canonical-unit interval [lo, hi) of shard i of
// m over the plan's (point, trial) unit space. Shards are contiguous in
// canonical order and partition it exactly — lo(0) = 0,
// hi(m−1) = UnitCount(), hi(i) = lo(i+1), sizes differing by at most
// one — so a single experiment can span machines below the point level
// while the shards' journals merge back into the canonical output
// (MergeShards) byte-identically to an unsharded run.
func (pl *SweepPlan) PlanShard(i, m int) (lo, hi int, err error) {
	if m < 1 || i < 0 || i >= m {
		return 0, 0, fmt.Errorf("sim: bad plan shard %d/%d: need 0 <= i < m", i, m)
	}
	u := pl.UnitCount()
	return i * u / m, (i + 1) * u / m, nil
}

// Shard names one PlanShard block: shard Index of Count. The zero value
// means "the whole plan".
type Shard struct {
	Index int
	Count int
}

func (s Shard) enabled() bool { return s.Count != 0 }

// Seeds enumerates every generator seed the plan would derive, in
// deterministic order. The sweep_test.go regression test asserts global
// pairwise distinctness across all experiments.
func (pl *SweepPlan) Seeds() []uint64 {
	cfg := pl.Config.withDefaults()
	var out []uint64
	for i := range pl.Points {
		pt := &pl.Points[i]
		for trial := 0; trial < pt.trials(cfg); trial++ {
			out = append(out, pt.graphSeed(cfg, trial))
			for ai := range pt.Arms {
				out = append(out, pt.armSeed(cfg, ai, trial))
			}
		}
	}
	return out
}

// runUnits fans n independent work items out over a pool of `workers`
// goroutines, each owning one walk.CoverScratch for its lifetime, and
// joins every item's error — a failing item never masks the others.
// Cancelling ctx stops the feed promptly: in-flight items finish,
// queued items are skipped, every worker exits, and ctx.Err() is
// returned. onDone, when non-nil, is invoked once per completed item
// with that item's index. Calls are serialised by a mutex but may
// originate from any worker, so unit order is not implied.
func runUnits(ctx context.Context, workers, n int, onDone func(unit int), fn func(unit int, sc *walk.CoverScratch) error) error {
	if workers > n {
		workers = n
	}
	units := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc walk.CoverScratch
			for u := range units {
				if ctx.Err() != nil {
					continue // drain the queue without running
				}
				errs[u] = fn(u, &sc)
				if onDone != nil {
					// The callback runs under the lock so invocations
					// are serialised, as RunOptions.Progress documents;
					// callbacks should therefore be quick.
					mu.Lock()
					onDone(u)
					mu.Unlock()
				}
			}
		}()
	}
feed:
	for u := 0; u < n; u++ {
		select {
		case units <- u:
		case <-ctx.Done():
			break feed
		}
	}
	close(units)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return errors.Join(errs...)
}

// RunOptions tunes RunContext beyond the plan's own Config.
type RunOptions struct {
	// Progress, when non-nil, is called after each completed
	// (point, trial) unit with the cumulative number of completed units
	// and the total count of units this run executes (units restored
	// from a checkpoint are not re-run and are not counted). Calls are
	// serialised (no locking needed in the callback) but may arrive
	// from any worker goroutine, so the order units complete in is
	// scheduler-dependent; the final call is always (total, total) on
	// an uncancelled run.
	Progress func(done, total int)
	// Checkpoint, when non-nil, journals every completed (point, trial)
	// unit into this run's own segment in Checkpoint.Dir as it finishes
	// (one writer goroutine appends each batch of queued records with
	// one write and one fsync, so a kill can lose at most the in-flight
	// and not yet committed units; the run returns only once every
	// completed unit is durable) and, when Checkpoint.Resume is set,
	// restores the completed units of an existing journal instead of
	// re-running them. See Checkpoint.
	Checkpoint *Checkpoint
}

// Run executes the plan and returns one PointResult per point, in point
// order. It is RunContext with a background context and no options.
func (pl *SweepPlan) Run() ([]PointResult, error) {
	return pl.RunContext(context.Background(), RunOptions{})
}

// RunContext executes the plan under ctx. Cancellation is prompt: the
// pool stops scheduling new (point, trial) units, in-flight units run to
// completion, all workers drain and exit (no goroutine leaks), and
// ctx.Err() is returned. A completed run under context.Background() is
// identical to Run(): results are a pure function of the Config's
// master seed either way — including runs resumed from a checkpoint,
// whose restored units carry the same measurements the original run
// derived and whose representative graphs (KeepRep points only) are
// re-derived from the same seeds.
func (pl *SweepPlan) RunContext(ctx context.Context, opts RunOptions) ([]PointResult, error) {
	return pl.runSpan(ctx, opts, Shard{}, nil)
}

// RunShard executes only the given PlanShard block of the plan's
// canonical unit space, journaling every completed unit into
// opts.Checkpoint (required: a strict subset of the unit space cannot
// be aggregated, so the journal is the shard's only output). Shard
// journals are stitched back into the canonical result by MergeShards.
// A shard run may itself be resumed (Checkpoint.Resume).
func (pl *SweepPlan) RunShard(ctx context.Context, shard Shard, opts RunOptions) error {
	if !shard.enabled() {
		return errors.New("sim: RunShard needs a non-zero Shard; use RunContext for the whole plan")
	}
	if opts.Checkpoint == nil {
		return errors.New("sim: RunShard needs a Checkpoint: the journal is the shard's only output")
	}
	_, err := pl.runSpan(ctx, opts, shard, nil)
	return err
}

// repWork marks a work item that regenerates a restored KeepRep point's
// representative graph instead of running a (point, trial) unit.
const repWork = -1

// workItem is one entry of runSpan's pool feed: a canonical unit to
// execute (unit >= 0) or, after a restore, the re-derivation of point
// rep's trial-0 representative graph (unit == repWork).
type workItem struct{ unit, rep int }

// runSpan is the shared core of RunContext, RunShard and MergeShards:
// it executes the units of one contiguous block of the canonical unit
// space (the whole space for the zero Shard), restores completed units
// from opts.Checkpoint's journal or the caller-supplied restored map
// instead of re-running them, journals completions when a checkpoint is
// configured, and aggregates the full []PointResult only when the block
// covers the whole plan (a strict shard returns (nil, nil) on success).
func (pl *SweepPlan) runSpan(ctx context.Context, opts RunOptions, shard Shard, restored map[int]UnitRecord) ([]PointResult, error) {
	cfg := pl.Config.withDefaults()
	if cfg.Trials < 0 {
		return nil, fmt.Errorf("sim: negative trials %d (0 selects the default)", cfg.Trials)
	}
	var units []unit
	results := make([]PointResult, len(pl.Points))
	firstUnit := make([]int, len(pl.Points))
	for pi := range pl.Points {
		pt := &pl.Points[pi]
		if pt.Graph == nil {
			return nil, fmt.Errorf("sim: point %q: nil graph factory", pt.Key)
		}
		trials := pt.trials(cfg)
		results[pi].Key = pt.Key
		results[pi].Arms = make([]ArmResult, len(pt.Arms))
		for ai := range pt.Arms {
			if pt.Arms[ai].Run == nil {
				return nil, fmt.Errorf("sim: point %q arm %q: nil arm func", pt.Key, pt.Arms[ai].Name)
			}
			results[pi].Arms[ai].Measurements = make([]Measurement, trials)
		}
		firstUnit[pi] = len(units)
		for t := 0; t < trials; t++ {
			units = append(units, unit{pi, t})
		}
	}
	lo, hi := 0, len(units)
	if shard.enabled() {
		var err error
		if lo, hi, err = pl.PlanShard(shard.Index, shard.Count); err != nil {
			return nil, err
		}
	}
	full := lo == 0 && hi == len(units)
	if opts.Checkpoint != nil {
		fromDisk, err := openCheckpoint(pl, cfg, opts.Checkpoint)
		if err != nil {
			return nil, err
		}
		if restored == nil {
			restored = fromDisk
		}
	}
	// Feed: the block's units minus the restored ones (their
	// measurements are injected as-is), plus — on a full span — the
	// representative-graph regenerations for KeepRep points whose
	// trial-0 unit was restored: PointResult.Rep must be the literal
	// trial-0 instance, and it is a pure function of the graph seed, so
	// re-deriving it reproduces the original exactly. A point whose
	// Finish reads no Rep regenerates nothing.
	var work []workItem
	for u := lo; u < hi; u++ {
		if rec, ok := restored[u]; ok {
			un := units[u]
			for ai := range rec.Arms {
				results[un.point].Arms[ai].Measurements[un.trial] = rec.Arms[ai]
			}
			continue
		}
		work = append(work, workItem{unit: u, rep: repWork})
	}
	executed := len(work)
	if full {
		for pi := range pl.Points {
			if _, ok := restored[firstUnit[pi]]; ok && pl.Points[pi].KeepRep {
				work = append(work, workItem{unit: repWork, rep: pi})
			}
		}
	}
	// Progress counts executed units only: a representative-graph
	// regeneration restores work, it does not run any.
	var onDone func(int)
	if opts.Progress != nil {
		done := 0
		onDone = func(w int) {
			if work[w].unit != repWork {
				done++
				opts.Progress(done, executed)
			}
		}
	}
	// Completed units go to one journal-writer goroutine, which
	// group-commits them into a segment of this run's own; the run
	// returns only once every record it was handed is durable, and a
	// failed commit cancels the units not yet started. A run with no
	// unit to execute creates no segment.
	var jw *journalWriter
	if opts.Checkpoint != nil && executed > 0 {
		seg, err := createSegment(opts.Checkpoint.Dir)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint: %w", err)
		}
		// Every commit was fsync'd, so closing loses nothing; it runs
		// after the writer has drained.
		defer seg.Close()
		var stop context.CancelFunc
		ctx, stop = context.WithCancel(ctx)
		defer stop()
		jw = startJournalWriter(executed, func(frames []byte) error { return commitFrames(seg, frames) }, stop)
	}
	err := runUnits(ctx, cfg.Workers, len(work), onDone, func(w int, sc *walk.CoverScratch) error {
		it := work[w]
		if it.unit == repWork {
			pt := &pl.Points[it.rep]
			g, err := pt.Graph(rand.New(rng.NewSource(cfg.Kind, pt.graphSeed(cfg, 0))))
			if err != nil {
				return fmt.Errorf("sim: point %q trial 0 graph: %w", pt.Key, err)
			}
			results[it.rep].Rep = g
			return nil
		}
		u := it.unit
		pi, trial := units[u].point, units[u].trial
		pt := &pl.Points[pi]
		g, err := pt.Graph(rand.New(rng.NewSource(cfg.Kind, pt.graphSeed(cfg, trial))))
		if err != nil {
			return fmt.Errorf("sim: point %q trial %d graph: %w", pt.Key, trial, err)
		}
		if trial == 0 && pt.KeepRep {
			// Each (point, 0) unit is the unique writer of its Rep slot.
			results[pi].Rep = g
		}
		ms := make([]Measurement, len(pt.Arms))
		for ai := range pt.Arms {
			arm := &pt.Arms[ai]
			r := rng.NewRand(rng.NewSource(cfg.Kind, pt.armSeed(cfg, ai, trial)))
			m, err := arm.Run(trial, g, r, sc, pt.maxSteps(cfg))
			if err != nil {
				return fmt.Errorf("sim: point %q trial %d arm %q: %w", pt.Key, trial, arm.Name, err)
			}
			ms[ai] = m
			results[pi].Arms[ai].Measurements[trial] = m
		}
		if jw != nil {
			jw.submit(UnitRecord{Unit: u, Point: pt.Key, Trial: trial, Arms: ms})
		}
		return nil
	})
	if jw != nil {
		if werr := jw.close(); werr != nil {
			// The write error, not the cancellation it caused.
			return nil, werr
		}
	}
	if err != nil {
		return nil, err
	}
	if !full {
		return nil, nil
	}
	for pi := range results {
		for ai := range results[pi].Arms {
			res := &results[pi].Arms[ai]
			vs := make([]float64, len(res.Measurements))
			es := make([]float64, len(res.Measurements))
			for i, m := range res.Measurements {
				vs[i] = m.Vertex
				es[i] = m.Edge
			}
			if res.VertexStats, err = stats.Summarize(vs); err != nil {
				return nil, fmt.Errorf("sim: point %q arm %q: %w", results[pi].Key, pl.Points[pi].Arms[ai].Name, err)
			}
			if res.EdgeStats, err = stats.Summarize(es); err != nil {
				return nil, fmt.Errorf("sim: point %q arm %q: %w", results[pi].Key, pl.Points[pi].Arms[ai].Name, err)
			}
		}
	}
	return results, nil
}
