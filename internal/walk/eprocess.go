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
// The process runs on the graph's CSR layout and allocates
// nothing after construction: pending unvisited halves live in a single
// flat arena (see edgeArena) that Reset refills with one copy from the
// graph's CSR block, and the visited bitset is cleared in place. A blue
// step deletes the crossed edge's two halves from the arena at once, so
// every pending block is exact at every Step boundary.
//
// Built by NewEProcessOn, the process walks a graph.Overlay instead: it
// reads each vertex's CSR block through the overlay's removed-edge mask
// on every step, so edges may be removed and restored between steps.
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

	// halves/off are the graph's CSR adjacency, cached so red steps
	// index it without a method call.
	halves []graph.Half
	off    []int32

	// ov is the removal mask of a process built by NewEProcessOn, nil
	// on the static path. With it set the pending arena is unused: each
	// step scans the current vertex's CSR block, skipping removed
	// halves, and a blue step collects its candidates in buf.
	ov  *graph.Overlay
	buf []graph.Half

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
	e := &EProcess{g: g, ri: r, r: interopRand(r), rule: rule, halves: g.Halves(), off: g.Offsets()}
	_, e.fastUniform = rule.(Uniform)
	e.init(start)
	return e
}

// NewEProcessOn returns an E-process on o's base graph that sees only
// the edges o has not removed, read through the mask at each step, so
// edges may be removed and restored between steps. Its candidates at a
// vertex are the base CSR block in CSR order with removed halves
// skipped. On a vertex whose incident edges have all been removed, Step
// reports a lazy stay (edge ID −1, position unchanged) until churn
// reconnects it.
func NewEProcessOn(o *graph.Overlay, r Intner, rule Rule, start int) *EProcess {
	if rule == nil {
		rule = Uniform{}
	}
	g := o.Base()
	e := &EProcess{g: g, ov: o, ri: r, r: interopRand(r), rule: rule, halves: g.Halves(), off: g.Offsets()}
	_, e.fastUniform = rule.(Uniform)
	e.init(start)
	return e
}

func (e *EProcess) init(start int) {
	e.cur = start
	e.visited.Reset(e.g.M())
	if e.ov == nil {
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
// count twice), i.e. the blue degree of Observation 10. On an overlay
// only live unvisited halves count.
func (e *EProcess) BlueDegree(v int) int {
	if e.ov != nil {
		count := 0
		for _, h := range e.halves[e.off[v]:e.off[v+1]] {
			if !e.ov.EdgeRemoved(int(h.ID)) && !e.visited.Test(int(h.ID)) {
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
// scan. On an overlay the result spans the base's edge-ID space,
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
	if e.ov != nil {
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

// stepDyn is Step on an overlay: the same blue-over-red preference
// over v's CSR block with the removed halves skipped, so the blue
// candidates are the live unvisited halves and a red step draws among
// the live ones, each in CSR order. A first scan only counts; the
// candidate list is built by a second scan on a blue step (at most m
// per run) and, on a red step, the drawn live half is indexed directly
// when nothing at v is removed. A vertex stripped of every live edge
// lazily stays put (edge ID −1).
func (e *EProcess) stepDyn(v int) (int, int) {
	ov, visited := e.ov, &e.visited
	adj := e.halves[e.off[v]:e.off[v+1]]
	live, blue := 0, 0
	for _, h := range adj {
		if !ov.EdgeRemoved(int(h.ID)) {
			live++
			if !visited.Test(int(h.ID)) {
				blue++
			}
		}
	}
	if blue == 0 {
		if live == 0 {
			// Churn isolated v: no live incident edges to walk. Count a
			// red step that goes nowhere so budgets still tick.
			e.redMark()
			return -1, v
		}
		k := e.ri.Intn(live)
		if live < len(adj) {
			for i, h := range adj {
				if ov.EdgeRemoved(int(h.ID)) {
					k++ // the k-th live half lies one slot further on
				} else if i == k {
					break
				}
			}
		}
		h := adj[k]
		e.cur = int(h.To)
		e.redMark()
		return int(h.ID), e.cur
	}
	p := e.buf[:0]
	for _, h := range adj {
		if !ov.EdgeRemoved(int(h.ID)) && !visited.Test(int(h.ID)) {
			p = append(p, h)
		}
	}
	e.buf = p
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
	h := p[idx]
	visited.Set(int(h.ID))
	return e.blueStep(h)
}

// Reset implements Process. It reuses all internal storage; after the
// first Reset on a given graph it performs no allocation.
func (e *EProcess) Reset(start int) { e.init(start) }
