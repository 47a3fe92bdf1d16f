// Package sim is the experiment harness: it runs seeded, reproducible,
// parallel sweeps of walk processes over graph families, aggregates the
// results, and renders the tables and series that regenerate the
// paper's Figure 1 and every quantitative claim.
//
// # Experiment registry
//
// Every experiment registers itself at init time (experiments*.go,
// figure1.go) under a stable name, a one-line description, and its
// seed-salt namespace. Registry() enumerates them in canonical order,
// Lookup(name) finds one, and Experiment.Run / RunExperiment plan and
// execute one under a context, returning a uniform Result: the typed
// rows, the rendered *Table, optional notes, and a reproduction stamp
// (seed, trials, scale) with a stable JSON encoding (WriteJSON /
// ReadResult). This is the only way to run an experiment: cmd/sweep
// drives its -list, selection, sharding, JSON and markdown report
// entirely from Registry(), cmd/sweepd and cmd/reprod run registry
// entries too, and package repro re-exports the harness as
// repro.Experiments / repro.RunExperiment. The generated index lives
// in EXPERIMENTS.md; `go run ./cmd/sweep -list` prints the live
// registry.
//
// # Sweep model
//
// An experiment's Plan lays out a SweepPlan: a set of PointSpecs (one
// per graph family cell, e.g. one (n, d) value) each carrying one or
// more Arms (the processes compared on that cell). The scheduling unit
// is a (point, trial) pair fanned out over one shared worker pool, so
// points run concurrently with each other as well as with their own
// trials. Each unit generates its graph once and hands the same
// immutable instance to every arm in turn — compared processes always
// see identical instances and generation cost is paid once per trial,
// not once per arm. A family that reads no randomness (torus,
// hypercube, circulant, LPS) is built once per Plan call instead: its
// factory builds the graph on first use and hands that one instance to
// every unit, whichever worker runs it; graphs are immutable, so
// sharing needs no care. Every trial would rebuild the same graph, so
// no byte changes, and each Plan call owns its instance, so no two
// runs share one. At a point that declares PointSpec.KeepRep, trial
// 0's graph outlives the sweep as PointResult.Rep, the representative
// instance used for structural post-processing (spectral gaps, girth,
// ℓ-bounds). Elsewhere a random family's trial graph is dropped with
// its unit, while a deterministic family's one instance lives as long
// as its plan and is built at most once per run.
//
// SweepPlan.RunContext(ctx, opts) executes the plan under a context:
// cancelling ctx stops the feed promptly, in-flight units finish,
// queued units are skipped, every worker drains and exits (no goroutine
// leaks), and ctx.Err() is returned. opts.Progress reports cumulative
// (units done, total) after each completed unit. Run() is RunContext
// with a background context; a completed RunContext is identical to it.
//
// # Durable runs: checkpoints, point-level shards, merges
//
// The canonical unit order (point-major, trial-minor — the order
// Seeds() walks) makes long runs durable and divisible:
//
//   - A Checkpoint in RunOptions journals every completed unit into a
//     directory as it finishes. The directory holds one fsync'd
//     manifest (master seed, registry name, salt namespace, scale,
//     trials, RNG kind, step budget and the full point/arm shape —
//     Workers is deliberately absent, journals are workers-independent
//     like the tables) and one append-only segment per run that wrote
//     to it, each line a unit record framed with its length and
//     CRC-32C. One writer goroutine group-commits the records — every
//     record queued while it was busy goes out in one write and one
//     fsync — so workers do not wait on fsync, and a run returns only
//     once every unit it completed is durable. A killed run loses at
//     most its in-flight and not yet committed units, and can tear only
//     its segment's final line; a power loss mid-fsync usually does the
//     same, but may leave damage before intact lines, which is refused
//     (the run then starts over in a fresh directory).
//     Checkpoint.Resume validates the manifest and every record
//     against the current plan — corrupted or mismatched journals are
//     rejected with a diagnostic naming the file and line, never
//     silently resumed; a torn final line's unit
//     simply re-runs — restores the completed units, re-derives the
//     trial-0 representative graphs of KeepRep points from their seeds,
//     and re-feeds only the missing units into a new segment; a resumed
//     Result is byte-identical to an uninterrupted one.
//   - PlanShard(i, m) partitions the unit space into m contiguous
//     blocks (exact cover, no overlap, balanced to within one unit), so
//     one experiment can span machines below the experiment level.
//     Experiment.RunShard runs one block, journaling it into a
//     Checkpoint; MergeShards validates and stitches the shard journals
//     back into the canonical Result, byte-identical to an unsharded
//     run. cmd/sweep surfaces all of this as -shard i/m@points,
//     -checkpoint, -resume and -merge.
//   - ShardCoverage reports how many units of one block a journal
//     holds, validating it first. It is the primitive under the
//     distributed coordinator (internal/dist, cmd/sweepd), which leases
//     PlanShard blocks to workers over HTTP, recovers completed blocks
//     from the journals after a restart, and trusts only on-disk
//     coverage — never a worker's claim — when marking a block done.
//     Duplicate execution after a lease expiry is harmless by the
//     seed-derivation contract: recomputed units journal identical
//     bytes, and MergeShards verifies overlapping records agree.
//
// Because a restored unit is not re-run, arms must return everything
// they measure through Measurement (the Extra channel carries outputs
// beyond the two cover times) — never through closure-captured side
// arrays, which a restore cannot replay.
//
// # Seed-derivation contract
//
// Every random quantity is a pure function of the master seed. All
// generator seeds are derived through the single audited function
//
//	deriveSeed(master, pointSalt, trial)
//
// where point salts are built with Salt from the owning experiment's
// registered namespace constant plus the point's coordinates, and the
// graph stream and each arm occupy distinct salt slots. Call sites must
// never hand-mix seeds with ^/<</| expressions — an operator-precedence
// bug in exactly such an expression once made distinct experiment
// points share seeds. The regression test in sweep_test.go enumerates
// every plan through the registry and asserts that every derived seed
// is pairwise distinct, and results are byte-identical regardless of
// the Workers setting or scheduler interleaving.
package sim
