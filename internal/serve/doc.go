// Package serve is the experiment-serving layer: a resident HTTP/JSON
// service (run by cmd/reprod) that answers experiment requests from an
// exact result cache, computing each distinct configuration at most
// once however many clients ask for it.
//
// # Why exact caching is sound
//
// The cache stores the literal response bytes of a completed run and
// serves them verbatim on a hit. That is correct — not approximately,
// but byte-for-byte — because of two contracts the sim layer already
// enforces:
//
//  1. The seed-derivation contract (internal/sim/sweep.go): every
//     random quantity of a run is a pure function of (master seed,
//     point salt, trial) through the single audited deriveSeed, so a
//     recomputation at the same configuration reproduces every
//     measurement bit-for-bit, and sim.Result's JSON encoding is a
//     stable pure function of the configuration — byte-identical
//     across Workers settings and scheduler interleavings.
//  2. The run-identity contract (sim.RunKey): the disk tier's key is
//     the canonical encoding of exactly the identity the checkpoint
//     manifest pins — seed, name, salt namespace, scale, trials, RNG
//     kind, step budget, and the plan's full point/arm shape, with
//     Workers deliberately absent. The memory tier and single-flight
//     key by sim.Experiment.CacheID, the registry name plus the
//     defaults-applied seed, trials, scale, kind and step budget —
//     the plan's every input but Workers, rendered without planning,
//     and equal to RunKey.CacheID() of the key the same request
//     plans. Cache identity therefore equals determinism identity: two
//     requests share a key if and only if a recomputation would
//     produce identical bytes. A memory hit costs no planning; only a
//     miss builds the RunKey, for the disk tier. Warm boot files a
//     spill in memory only when RunKey.CacheID() confirms this binary
//     still plans the spill's request to exactly its stored key, so a
//     spill from a build with another plan is never a memory hit.
//
// Together these make a cache hit indistinguishable from a recompute,
// so the serving layer needs no invalidation, no TTLs and no
// staleness reasoning — an entry is evicted only for capacity (LRU).
//
// # The persistent tier
//
// The same argument survives a restart, because RunKey is exactly the
// durable identity the checkpoint manifests already persist: with
// Options.CacheDir set, completed response bytes are additionally
// spilled to <dir>/<sha256-of-RunKey>.json using the journal layer's
// write discipline (unique temp file, fsync, rename, fsync'd parent
// directory), each file carrying a header with the full encoded
// RunKey, the body length and a body checksum. On boot the store is
// scanned — temp-file debris deleted, every spill validated, the
// memory LRU warmed most-recently-modified-first up to capacity — and
// a memory miss consults disk before computing. The filename hash is
// only an address: a hit is served solely on the stored key comparing
// equal to the requested key, so hash collisions, renamed files and
// key drift are detected, and any corrupted, truncated or mismatched
// spill is rejected with a diagnostic, deleted, and transparently
// recomputed. A spill whose header line is byte-equal to the one the
// store writes for the requested key and body is served without
// decoding; every other file takes the full decode. The store's lock
// covers its index and eviction only, so reads, validation and fsync'd
// spill writes of different requests overlap, and a spill evicted
// between lookup and read is a miss. The store enforces a byte budget (Options.CacheDiskBytes)
// by LRU eviction of spill files; an unusable directory degrades the
// server to memory-only rather than failing the boot.
//
// # Admission control and lifecycle
//
// Requests pass three gates before reaching the sweep engine: a
// per-client token-bucket rate limit (429 with Retry-After), the
// cache/single-flight layer (N concurrent identical requests cost one
// run; followers receive the leader's bytes), and an inflight-run
// limiter bounding concurrent sweeps (503 when saturated). Accepted
// runs execute under a context joined from the client request, the
// per-run timeout and the server's drain signal, so a disconnected
// client — or a SIGTERM — cancels the underlying SweepPlan.RunContext
// promptly and its workers drain leak-free, per the cancellation
// contract. cmd/reprod's shutdown sequence is: stop accepting, cancel
// inflight runs via Drain, let http.Server.Shutdown reap the handlers,
// exit 0.
//
// Observability: Prometheus-style /metrics (cache hits, misses,
// evictions, inflight runs, run-latency histogram, per-experiment and
// per-status counters), /healthz for probes, /debug/stats and
// /debug/pprof/ for operators, and one structured log line per
// request.
package serve
