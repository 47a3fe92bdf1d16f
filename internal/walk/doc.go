// Package walk implements the walk processes the paper studies and the
// processes it compares against, together with the cover-time machinery
// that measures them.
//
// The processes:
//
//   - Simple: the simple random walk (SRW), optionally lazy, the
//     baseline for every bound in the paper.
//   - Weighted: a reversible weighted random walk, the class for which
//     Theorem 5 (Radzik's Ω(n log n) lower bound) is stated.
//   - EProcess: the paper's contribution — a walk that crosses an
//     unvisited ("blue") incident edge whenever one exists, choosing
//     among them by an arbitrary pluggable Rule A, and performs a
//     simple-random-walk step on visited ("red") edges otherwise.
//     With the uniform rule this is exactly Orenshtein & Shinkar's
//     Greedy Random Walk.
//   - Choice: Avin & Krishnamachari's random walk with choice RWC(d):
//     sample d neighbours, move to the least-visited.
//   - Rotor: the rotor-router (Propp machine), the deterministic
//     sibling with O(mD) cover time.
//   - OldestFirst / LeastUsedFirst: the locally fair exploration
//     strategies of Cooper, Ilcinkas, Klasing and Kosowski, cited by
//     the paper for their exponential-vs-polynomial contrast.
//
// All processes implement Process: one edge transition per Step call,
// reporting the edge traversed, so that the generic drivers
// (VertexCoverSteps, EdgeCoverSteps, Cover) can measure vertex and
// edge cover times for any of them without knowing their internals.
// The three are thin calls of one cover loop, CoverScratch.Drive, which
// also takes an observer called after every step: the online analyses
// of internal/core and internal/trace (invariant checks, star censuses,
// blue-phase lengths, first-visit recordings) run on it instead of
// stepping the process themselves.
//
// # Memory discipline
//
// The step loop is the hot path of every experiment, so the engine is
// allocation-free after construction and its state is packed for cache
// density: halves are 8-byte (uint32-field) records, and every visited
// or seen set is a word-packed internal/bits.Set — one bit per edge or
// vertex — so whole-set scans (UnvisitedEdgeIDs) run a word at a time.
// Processes run on their graph's CSR layout (constructors cache the
// flat Halves/Offsets arrays); the E-process keeps
// its per-vertex pending (unvisited) half-edges in a single flat arena
// mirroring the CSR block (see edgeArena for the invariants), and Reset
// refills that arena with one copy and clears bitsets in place — no
// per-vertex allocation, and zero allocation from the second Reset on.
// With the Uniform rule, EProcess.Step draws the crossed edge without
// the Rule interface dispatch; it is draw-for-draw identical to the
// generic path. Callers that measure many trials reuse the
// cover drivers' seen-bitsets through CoverScratch; the package-level
// VertexCoverSteps/EdgeCoverSteps/Cover remain as one-shot
// conveniences. internal/walk/alloc_test.go pins all of this with
// testing.AllocsPerRun.
//
// # Exact pending blocks and the fused cover loop
//
// One engine serves every rule A. A blue step deletes both halves of
// the crossed edge from the pending arena at once: the chosen half
// from the current vertex's block and its twin from the far endpoint's
// block, found by edge ID, each by swap with the block's last element.
// A lazy prune on the next arrival would leave the same arrangement: a
// half goes stale only when the walk crosses its edge from the other
// endpoint, which moves the walk onto the stale half's own vertex, so
// that prune always finds exactly one visited half, or none. Every
// pending block is therefore exact at every Step boundary, BlueDegree(v)
// is its length, and the math/rand golden trajectories hold for every
// rule. Biased keeps the lazy prune: its SRW branch can cross an
// unvisited edge without taking it out of either block.
//
// Exact blocks also let the cover drivers run a fresh static
// Uniform-rule *EProcess in one fused loop (CoverScratch.Cover and
// CoverScratch.VertexCoverSteps). The loop keeps the xoshiro256** state
// in locals, counts covered edges with a bare counter (a blue step
// always covers a new edge, a red step never does) and probes no
// seen-edge set. Both fused loops draw the same way at every site: the
// inlined update xoshiroNext on the locals, one multiply, and only on a
// product in Lemire's low fringe (probability bound/2⁶⁴) a call to the
// out-of-line lemireFringe, the one rejection loop;
// TestFusedDrawMatchesUint64n pins the pair against rng's Uint64n. It takes the same
// steps per-Step driving takes and leaves the process in the same
// state; golden_test.go and fused_test.go pin that.
//
// The same two drivers run every *Choice, and every non-lazy *Simple as
// RWC(1), whose source is an xoshiro256** (bare or inside an
// *rng.Rand) through a second fused loop, coverChoice: the same hoisted
// draws in Choice.Step's order (d samples over the CSR block, a
// reservoir draw only on a tie with the best visit count so far) and
// the same visit-count updates, leaving Current, Visits and the
// generator as per-Step driving does. fused_test.go pins it against
// per-Step driving. Every other process (a Simple or Choice on any
// other source, a lazy Simple, Rotor, the locally fair walks, Weighted,
// Biased, VProcess, a non-fusable EProcess) is driven one Step at a
// time, and so is every process under EdgeCoverSteps,
// VertexCoverCensored and an observed Drive: a fused loop never calls
// an observer. Drive has one per-Step loop, one default budget and one
// budget error for all of them.
//
// VertexCoverCensored drives walks on churning overlays, and its caller
// may declare that the churn only removes edges. Such a run ends once
// its outcome is settled, when a search over the live edges from the
// walker reaches no unvisited vertex; it reports the full budget and
// the same Uncovered count the whole run would. The search runs only
// after n steps with no new vertex, and after every doubling of that
// idle count, so it costs O(1) per step amortised.
//
// # Randomness
//
// Randomised processes draw bounded ints through the minimal Intner
// interface. Passing a *math/rand.Rand preserves the historical draw
// sequence bit-for-bit (see the golden-trajectory tests); passing a
// concrete internal/rng generator routes every draw through Lemire's
// nearly-divisionless bounded-int method, which is what the simulation
// harness does for production sweeps. Given equal seeds and the same
// source kind, runs are bit-for-bit reproducible.
package walk
