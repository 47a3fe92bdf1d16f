package walk

import (
	"fmt"
	"math/rand"

	"repro/internal/bits"
	"repro/internal/graph"
)

// Phase identifies whether the E-process is following unvisited (blue)
// or visited (red) edges, in the paper's colouring metaphor.
type Phase int

// Phases of the E-process.
const (
	PhaseBlue Phase = iota + 1 // traversing unvisited edges
	PhaseRed                   // simple random walk on visited edges
)

func (p Phase) String() string {
	switch p {
	case PhaseBlue:
		return "blue"
	case PhaseRed:
		return "red"
	default:
		return "unknown"
	}
}

// Stats aggregates the phase structure of an E-process trajectory.
type Stats struct {
	RedSteps   int64 // transitions along previously visited edges
	BlueSteps  int64 // transitions along unvisited edges (≤ m always)
	BluePhases int64 // maximal runs of blue transitions
	RedPhases  int64 // maximal runs of red transitions
}

// Total returns the total number of steps.
func (s Stats) Total() int64 { return s.RedSteps + s.BlueSteps }

// EProcess is the paper's edge-process. At each step:
//
//   - if the current vertex has unvisited incident edges, cross one of
//     them (chosen by the Rule) and mark it visited — a blue step;
//   - otherwise take a simple-random-walk step over the (visited)
//     incident edges — a red step.
//
// The Rule is the paper's "rule A": it may be random, deterministic, or
// adversarial; Theorem 1's bound is independent of it.
//
// The process runs on the graph's frozen CSR layout and allocates
// nothing after construction: pending unvisited halves live in a single
// flat arena (see edgeArena) that Reset refills with one copy from the
// graph's CSR block, and the visited bitset is cleared in place. A blue
// step deletes the crossed edge's two halves from the arena at once, so
// every pending block is exact at every Step boundary.
type EProcess struct {
	g    *graph.Graph
	ri   Intner
	r    *rand.Rand // interop view of ri for Rand(); may be nil
	rule Rule

	// fastUniform draws the blue index directly when the rule is the
	// stateless Uniform rule (the common case of every sweep), skipping
	// Rule dispatch; it also admits a fresh process to the cover
	// drivers' fused loop (CoverScratch.Cover).
	fastUniform bool

	cur     int
	visited bits.Set // by edge ID

	// pend holds exactly the unvisited half-edges of every vertex in
	// one flat block; a blue step deletes both halves of the crossed
	// edge (edgeArena.cross), so the static path never prunes.
	pend edgeArena

	// halves/off are the graph's CSR adjacency, cached (and rebound at
	// each Reset) so red steps index it without a method call.
	halves []graph.Half
	off    []int32

	// Dynamic-topology mode (NewEProcessOn with a mutable topology):
	// topo is non-nil, the pending arena is unused, and adjacency reads
	// go through the Topology interface into a per-vertex live-adjacency
	// cache. adjFresh is the cache-validity set, generation-stamped with
	// the topology's epoch: a churn event only bumps the epoch, and the
	// walk's next Sync lazily invalidates every cached block at once —
	// no reallocation, no eager clearing per event. The static path
	// (topo == nil) never touches any of this.
	topo       graph.Topology
	dynUniform bool // Uniform rule on the dynamic path (no Rule dispatch)
	adjCache   [][]graph.Half
	adjFresh   bits.Set
	buf        []graph.Half // unvisited-halves scratch for the blue choice

	stats Stats
	phase Phase

	// Optional phase-length recording (RecordPhases).
	recordPhases bool
	phaseLens    []int64
	curPhaseLen  int64
}

var _ Process = (*EProcess)(nil)

// NewEProcess returns an E-process on g starting at start, choosing
// among unvisited edges with rule (nil means the uniform rule, i.e.
// Orenshtein & Shinkar's Greedy Random Walk). r is typically a
// *math/rand.Rand (trajectories then match the historical math/rand
// draw sequence) or a concrete internal/rng generator for the fast
// bounded-int path.
func NewEProcess(g *graph.Graph, r Intner, rule Rule, start int) *EProcess {
	if rule == nil {
		rule = Uniform{}
	}
	e := &EProcess{g: g, ri: r, r: interopRand(r), rule: rule}
	_, e.fastUniform = rule.(Uniform)
	e.init(start)
	return e
}

// NewEProcessOn returns an E-process on an arbitrary topology. A plain
// *graph.Graph routes to NewEProcess — the devirtualized static fast
// path, draw-for-draw identical to always — while a mutable topology
// (e.g. *graph.Overlay) gets the dynamic path: adjacency is read
// through the interface, cached per vertex, and invalidated lazily via
// the topology's epoch, so edges may be added, removed and restored
// between steps. On a vertex whose incident edges have all been
// removed, Step reports a lazy stay (edge ID −1, position unchanged)
// until churn reconnects it.
func NewEProcessOn(t graph.Topology, r Intner, rule Rule, start int) *EProcess {
	if g, ok := t.(*graph.Graph); ok {
		return NewEProcess(g, r, rule, start)
	}
	if rule == nil {
		rule = Uniform{}
	}
	e := &EProcess{g: t.Base(), topo: t, ri: r, r: interopRand(r), rule: rule}
	// fastUniform stays false: the fused path reads the static arena.
	// The dynamic path short-circuits Rule dispatch on its own flag.
	_, e.dynUniform = rule.(Uniform)
	e.init(start)
	return e
}

func (e *EProcess) init(start int) {
	e.cur = start
	if e.topo != nil {
		e.g = e.topo.Base() // refreshed: a Commit between runs re-bases
		e.visited.Reset(e.topo.EdgeIDBound())
		if len(e.adjCache) != e.topo.N() {
			e.adjCache = make([][]graph.Half, e.topo.N())
		}
		// adjCache entries stay valid across Reset: they hold live
		// adjacency (not visited-filtered), keyed by the topology epoch
		// through adjFresh's generation stamp in stepDyn.
	} else {
		// Rebind to the graph's current CSR arrays: a mutation since the
		// last run re-froze the graph into new storage.
		e.halves = e.g.Halves()
		e.off = e.g.Offsets()
		e.visited.Reset(e.g.M())
		e.pend.reset(e.g)
	}
	e.stats = Stats{}
	e.phase = 0
	e.phaseLens = nil
	e.curPhaseLen = 0
	e.rule.Reset(e.g)
}

// Graph implements Process.
func (e *EProcess) Graph() *graph.Graph { return e.g }

// Current implements Process.
func (e *EProcess) Current() int { return e.cur }

// Rand returns a *math/rand.Rand view of the process's random source,
// for Rules that need distributions beyond bounded ints. It shares
// state with the hot-path source. It is nil when the process was built
// from an Intner with no math/rand interop.
func (e *EProcess) Rand() *rand.Rand { return e.r }

// Intn draws a uniform int from [0, n) from the process's random
// source — the fast bounded path when the source is a concrete
// internal/rng generator. Randomised Rules should prefer this over
// Rand().Intn.
func (e *EProcess) Intn(n int) int { return e.ri.Intn(n) }

// EdgeVisited reports whether edge id has been traversed.
func (e *EProcess) EdgeVisited(id int) bool { return e.visited.Test(id) }

// BlueDegree returns the number of unvisited edge-endpoints at v (loops
// count twice), i.e. the blue degree of Observation 10. On a dynamic
// topology only live unvisited halves count.
func (e *EProcess) BlueDegree(v int) int {
	if e.topo != nil {
		count := 0
		for _, h := range e.liveAdj(v) {
			if !e.visited.Test(int(h.ID)) {
				count++
			}
		}
		return count
	}
	return len(e.pend.pending(v))
}

// UnvisitedEdgeIDs returns the IDs of all currently unvisited edges, in
// increasing order. Used by the blue-component analysis. Every blue
// step visits exactly one edge, so the result has exactly
// Len(visited) − BlueSteps entries (on a static graph, m − BlueSteps);
// the slice is sized up front and filled by the bitset's word-at-a-time
// scan. On a dynamic topology the result spans the full edge-ID space,
// currently-removed (unvisited) edges included.
func (e *EProcess) UnvisitedEdgeIDs() []int {
	out := make([]int, 0, int64(e.visited.Len())-e.stats.BlueSteps)
	return e.visited.AppendUnset(out)
}

// Stats returns the phase statistics accumulated so far.
func (e *EProcess) Stats() Stats { return e.stats }

// RecordPhases enables per-blue-phase length recording (disabled by
// default to keep the hot path allocation-free). Call before stepping.
func (e *EProcess) RecordPhases(on bool) { e.recordPhases = on }

// BluePhaseLengths returns the lengths of completed blue phases, in
// order, when recording is enabled. The structural prediction from the
// proof of Lemma 15 is that the first phase is macroscopic (Euler-like
// on an even-degree graph: a constant fraction of m) and later phases
// shrink as the blue territory fragments.
func (e *EProcess) BluePhaseLengths() []int64 {
	out := make([]int64, len(e.phaseLens), len(e.phaseLens)+1)
	copy(out, e.phaseLens)
	if e.curPhaseLen > 0 {
		out = append(out, e.curPhaseLen) // phase still open at query time
	}
	return out
}

// Phase returns the colour of the most recent step (0 before any step).
func (e *EProcess) Phase() Phase { return e.phase }

// Step implements Process.
func (e *EProcess) Step() (int, int) {
	v := e.cur
	if e.topo != nil {
		return e.stepDyn(v)
	}
	a := &e.pend
	lo, hi := a.off[v], a.end[v]
	if lo == hi {
		return e.redStep(v)
	}
	p := a.halves[lo:hi]
	// Blue step: the rule chooses which unvisited edge to cross. For the
	// Uniform rule the process draws the index itself, the one Intn
	// Uniform.Choose would make, skipping Rule dispatch. The paper allows
	// arbitrary (even adversarial) rules, so the process validates any
	// other rule's choice rather than trusting it: an out-of-range index
	// is a bug worth failing loudly on, not silently walking a corrupted
	// trajectory.
	var idx int
	if e.fastUniform {
		idx = e.ri.Intn(len(p))
	} else {
		idx = e.rule.Choose(e, v, p)
		if idx < 0 || idx >= len(p) {
			panic(fmt.Sprintf("walk: rule %q chose index %d among %d unvisited edges at vertex %d",
				e.rule.Name(), idx, len(p), v))
		}
	}
	h := e.pend.cross(v, idx)
	e.visited.Set(int(h.ID))
	return e.blueStep(h)
}

// blueStep finishes a blue transition along h: move, count, and keep
// the phase bookkeeping.
func (e *EProcess) blueStep(h graph.Half) (int, int) {
	e.cur = int(h.To)
	e.stats.BlueSteps++
	if e.phase != PhaseBlue {
		e.stats.BluePhases++
		e.phase = PhaseBlue
	}
	if e.recordPhases {
		e.curPhaseLen++
	}
	return int(h.ID), e.cur
}

// redStep takes a simple-random-walk step over the full adjacency of v.
func (e *EProcess) redStep(v int) (int, int) {
	adj := e.halves[e.off[v]:e.off[v+1]]
	h := adj[e.ri.Intn(len(adj))]
	e.cur = int(h.To)
	e.redMark()
	return int(h.ID), e.cur
}

// redMark does the phase bookkeeping of a red transition (or a lazy
// stay on a churned-isolated vertex, which colours red too).
func (e *EProcess) redMark() {
	e.stats.RedSteps++
	if e.phase != PhaseRed {
		e.stats.RedPhases++
		e.phase = PhaseRed
		if e.recordPhases && e.curPhaseLen > 0 {
			e.phaseLens = append(e.phaseLens, e.curPhaseLen)
			e.curPhaseLen = 0
		}
	}
}

// liveAdj returns v's current live adjacency from the per-vertex cache,
// rebuilding the entry through the Topology interface when the cache is
// stale. Staleness is tracked by adjFresh, generation-stamped with the
// topology's epoch: Sync is O(1) while the epoch is unchanged and one
// lazy clear when it moved, so a churn event costs the mutator nothing
// here and the walk only re-reads vertices it actually touches.
func (e *EProcess) liveAdj(v int) []graph.Half {
	e.adjFresh.Sync(uint32(e.topo.Epoch()), len(e.adjCache))
	if !e.adjFresh.Test(v) {
		e.adjCache[v] = e.topo.AppendAdj(v, e.adjCache[v][:0])
		e.adjFresh.Set(v)
	}
	return e.adjCache[v]
}

// stepDyn is Step on a mutable topology: same blue-over-red preference,
// but adjacency comes from liveAdj (epoch-invalidated cache) instead of
// the frozen arena, the visited set grows with the edge-ID space, and a
// vertex stripped of every live edge lazily stays put (edge ID −1).
func (e *EProcess) stepDyn(v int) (int, int) {
	adj := e.liveAdj(v)
	if b := e.topo.EdgeIDBound(); b > e.visited.Len() {
		e.visited.Grow(b)
	}
	e.buf = e.buf[:0]
	for _, h := range adj {
		if !e.visited.Test(int(h.ID)) {
			e.buf = append(e.buf, h)
		}
	}
	if len(e.buf) > 0 {
		var idx int
		if e.dynUniform {
			idx = e.ri.Intn(len(e.buf))
		} else {
			idx = e.rule.Choose(e, v, e.buf)
			if idx < 0 || idx >= len(e.buf) {
				panic(fmt.Sprintf("walk: rule %q chose index %d among %d unvisited edges at vertex %d",
					e.rule.Name(), idx, len(e.buf), v))
			}
		}
		h := e.buf[idx]
		e.visited.Set(int(h.ID))
		return e.blueStep(h)
	}
	if len(adj) == 0 {
		// Churn isolated v: no live incident edges to walk. Count a red
		// step that goes nowhere so budgets still tick.
		e.redMark()
		return -1, v
	}
	h := adj[e.ri.Intn(len(adj))]
	e.cur = int(h.To)
	e.redMark()
	return int(h.ID), e.cur
}

// Reset implements Process. It reuses all internal storage; after the
// first Reset on a given graph it performs no allocation.
func (e *EProcess) Reset(start int) { e.init(start) }
