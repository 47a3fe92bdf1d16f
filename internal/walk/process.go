package walk

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bits"
	"repro/internal/graph"
)

// ErrStepBudget is returned by the cover drivers when the walk fails to
// cover within the caller's step budget.
var ErrStepBudget = errors.New("walk: step budget exhausted before cover")

// Process is a vertex-to-vertex walk advanced one edge transition at a
// time.
type Process interface {
	// Graph returns the underlying graph.
	Graph() *graph.Graph
	// Current returns the vertex the walk occupies.
	Current() int
	// Step performs one edge transition and returns the edge ID
	// traversed and the new current vertex.
	Step() (edgeID, vertex int)
	// Reset returns the process to its initial state at the given
	// start vertex, clearing all visitation memory.
	Reset(start int)
}

// CoverScratch holds the seen-vertex/seen-edge bitsets the cover
// drivers need, so a caller running many trials (e.g. a sim worker)
// reuses one allocation instead of paying O(n+m) garbage per trial.
// The zero value is ready to use; it grows on demand and is not safe
// for concurrent use.
type CoverScratch struct {
	seenV bits.Set
	seenE bits.Set

	// reach and queue are VertexCoverCensored's breadth-first search
	// over the live halves, which decides whether a run is settled.
	reach bits.Set
	queue []int32

	// trace, when non-nil, observes every transition of the fused cover
	// loop as (edgeID, vertex): the golden-trajectory tests' window into
	// it. Production callers leave it nil.
	trace func(edgeID, vertex int)
}

// scratchPool recycles CoverScratch values behind the package-level
// one-shot drivers, so casual callers (benchmark constructions, tests,
// tools without a worker loop) stop paying the seen-bitset allocations
// per call. Workers that run many trials should still hold their own
// CoverScratch — the pool serialises on nothing but also guarantees
// nothing about locality.
var scratchPool = sync.Pool{New: func() any { return new(CoverScratch) }}

// vertexSeen returns a cleared n-element bitset, reusing prior storage
// when it is large enough.
func (sc *CoverScratch) vertexSeen(n int) *bits.Set {
	sc.seenV.Reset(n)
	return &sc.seenV
}

// edgeSeen returns a cleared m-element bitset, reusing prior storage
// when it is large enough.
func (sc *CoverScratch) edgeSeen(m int) *bits.Set {
	sc.seenE.Reset(m)
	return &sc.seenE
}

// VertexCoverSteps runs p until every vertex of its graph has been
// visited (the start vertex counts as visited at step 0) and returns
// the number of steps taken. maxSteps caps the run; maxSteps <= 0 means
// a default of 10000·n·(floor(log2 n)+1) steps (11 for n = 1024), far
// beyond any process here on connected graphs.
func VertexCoverSteps(p Process, maxSteps int64) (int64, error) {
	sc := scratchPool.Get().(*CoverScratch)
	defer scratchPool.Put(sc)
	return sc.VertexCoverSteps(p, maxSteps)
}

// VertexCoverSteps is the scratch-reusing form of the package-level
// function. A fresh static Uniform-rule *EProcess runs through the fused
// cover loop coverFused, and every *Choice and non-lazy *Simple on an
// xoshiro256** source through coverChoice; every other process is
// driven by Step.
func (sc *CoverScratch) VertexCoverSteps(p Process, maxSteps int64) (int64, error) {
	if maxSteps <= 0 {
		maxSteps = defaultBudget(p.Graph().N())
	}
	_, steps, err := sc.cover(p, maxSteps, true, false)
	return steps, err
}

// EdgeCoverSteps runs p until every edge of its graph has been
// traversed at least once and returns the number of steps taken.
// maxSteps <= 0 means the default budget over n+m: 10000·(n+m)·
// (floor(log2(n+m))+1) steps.
func EdgeCoverSteps(p Process, maxSteps int64) (int64, error) {
	sc := scratchPool.Get().(*CoverScratch)
	defer scratchPool.Put(sc)
	return sc.EdgeCoverSteps(p, maxSteps)
}

// EdgeCoverSteps is the scratch-reusing form of the package-level
// function. Every process is driven by Step.
func (sc *CoverScratch) EdgeCoverSteps(p Process, maxSteps int64) (int64, error) {
	if maxSteps <= 0 {
		maxSteps = defaultBudget(p.Graph().N() + p.Graph().M())
	}
	_, steps, err := sc.cover(p, maxSteps, false, true)
	return steps, err
}

// CoverTimes reports both cover times from a single trajectory: the
// step at which the last vertex was first visited and the step at which
// the last edge was first traversed.
type CoverTimes struct {
	Vertex int64 // steps to visit all vertices
	Edge   int64 // steps to traverse all edges
}

// Cover runs p until both vertices and edges are covered. maxSteps
// caps the run; maxSteps <= 0 means the default budget over n+m, as
// for EdgeCoverSteps.
func Cover(p Process, maxSteps int64) (CoverTimes, error) {
	sc := scratchPool.Get().(*CoverScratch)
	defer scratchPool.Put(sc)
	return sc.Cover(p, maxSteps)
}

// Cover is the scratch-reusing form of the package-level function. A
// fresh static Uniform-rule *EProcess runs through the fused cover loop
// coverFused, and every *Choice and non-lazy *Simple on an xoshiro256**
// source through coverChoice; every other process is driven by Step.
func (sc *CoverScratch) Cover(p Process, maxSteps int64) (CoverTimes, error) {
	if maxSteps <= 0 {
		maxSteps = defaultBudget(p.Graph().N() + p.Graph().M())
	}
	ct, _, err := sc.cover(p, maxSteps, true, true)
	return ct, err
}

// cover is the three drivers' shared run: it runs p until every vertex
// (when vertices is set) and every edge (when edges is set) is covered,
// or for at most maxSteps steps, and returns the cover times reached,
// the steps taken and, for a run the budget stopped, budgetError. A
// vertex run goes to the fused loop that fits p, if any; otherwise
// coverSteps drives p one Step at a time.
func (sc *CoverScratch) cover(p Process, maxSteps int64, vertices, edges bool) (CoverTimes, int64, error) {
	var ct CoverTimes
	var steps int64
	var leftV, leftE int
	fused := false
	if vertices {
		ct, steps, leftV, leftE, fused = sc.coverFusedAny(p, maxSteps, edges)
	}
	if !fused {
		ct, steps, leftV, leftE = sc.coverSteps(p, maxSteps, vertices, edges)
	}
	if leftV|leftE != 0 {
		return ct, steps, budgetError(vertices, edges, leftV, leftE, steps)
	}
	return ct, steps, nil
}

// coverSteps is cover's per-Step loop: it drives p one Step at a time
// and returns, beside the cover times and steps, what is left uncovered
// when it stops.
func (sc *CoverScratch) coverSteps(p Process, maxSteps int64, vertices, edges bool) (ct CoverTimes, steps int64, leftV, leftE int) {
	g := p.Graph()
	if vertices {
		sc.vertexSeen(g.N()).Set(p.Current())
		leftV = g.N() - 1
	}
	if edges {
		sc.edgeSeen(g.M())
		leftE = g.M()
	}
	seenV, seenE := &sc.seenV, &sc.seenE
	for leftV|leftE != 0 && steps < maxSteps {
		e, v := p.Step()
		steps++
		if leftV > 0 && !seenV.Test(v) {
			seenV.Set(v)
			if leftV--; leftV == 0 {
				ct.Vertex = steps
			}
		}
		if leftE > 0 && e >= 0 && !seenE.Test(e) { // e < 0 marks a lazy stay: no edge crossed
			seenE.Set(e)
			if leftE--; leftE == 0 {
				ct.Edge = steps
			}
		}
	}
	return ct, steps, leftV, leftE
}

// budgetError is the cover drivers' censoring error for a run stopped
// at steps with leftV vertices (when vertices is set) and leftE edges
// (when edges is set) still uncovered.
func budgetError(vertices, edges bool, leftV, leftE int, steps int64) error {
	switch {
	case !edges:
		return fmt.Errorf("%w: %d vertices unvisited after %d steps", ErrStepBudget, leftV, steps)
	case !vertices:
		return fmt.Errorf("%w: %d edges untraversed after %d steps", ErrStepBudget, leftE, steps)
	}
	return fmt.Errorf("%w: %d vertices, %d edges uncovered after %d steps", ErrStepBudget, leftV, leftE, steps)
}

// CoverOutcome is the result of a censored cover run: the steps taken
// and how many vertices were still unvisited when the run stopped.
// Uncovered == 0 means the walk covered within budget; Uncovered > 0
// means the budget censored the run — on a churned (possibly
// disconnected) topology that is data, not an error.
type CoverOutcome struct {
	Steps     int64
	Uncovered int
}

// VertexCoverCensored runs p toward vertex cover for at most maxSteps
// steps, invoking hook (if non-nil) before every step — the dynamic
// experiments inject churn there, mutating the topology the process
// walks. Unlike VertexCoverSteps, exhausting the budget is not an
// error: churn can disconnect the graph and strand vertices forever, so
// the driver reports the censored outcome and lets the caller treat
// Uncovered as a measurement. maxSteps <= 0 falls back to the default
// budget.
//
// removeOnly declares that hook can only remove edges, never restore
// or add one. When it is set and p walks a graph.Overlay (a process
// built by NewEProcessOn), the run stops early once its outcome is
// settled: a breadth-first search over the live halves from
// p.Current() reaches no unvisited vertex. The walker's live component
// can then only shrink, so no later step visits a new vertex, and the
// settled run reports exactly what the full-budget run would: Steps ==
// maxSteps and the same Uncovered. The hook is not called for the
// steps skipped. The search runs only after n steps with no newly
// visited vertex, and again after every doubling of that idle count
// (2n, 4n, ...), so its amortised cost is O(1) per step on bounded
// degree. A caller whose hook may restore edges must pass false.
func (sc *CoverScratch) VertexCoverCensored(p Process, maxSteps int64, hook func(), removeOnly bool) CoverOutcome {
	g := p.Graph()
	n := g.N()
	if maxSteps <= 0 {
		maxSteps = defaultBudget(n)
	}
	var ov *graph.Overlay
	if e, ok := p.(*EProcess); ok && removeOnly {
		ov = e.ov
	}
	seen := sc.vertexSeen(n)
	seen.Set(p.Current())
	remaining := n - 1
	var steps, idle int64
	check := int64(n)
	for remaining > 0 && steps < maxSteps {
		if hook != nil {
			hook()
		}
		_, v := p.Step()
		steps++
		if !seen.Test(v) {
			seen.Set(v)
			remaining--
			idle, check = 0, int64(n)
		} else if ov != nil {
			if idle++; idle == check {
				if sc.stranded(ov, seen, v) {
					return CoverOutcome{Steps: maxSteps, Uncovered: remaining}
				}
				check *= 2
			}
		}
	}
	return CoverOutcome{Steps: steps, Uncovered: remaining}
}

// stranded reports whether a walker at cur on ov can reach no vertex
// outside seen: a breadth-first search from cur over the live halves
// of ov's base, stopping at the first unseen vertex it meets.
func (sc *CoverScratch) stranded(ov *graph.Overlay, seen *bits.Set, cur int) bool {
	g := ov.Base()
	halves, off := g.Halves(), g.Offsets()
	sc.reach.Reset(g.N())
	sc.reach.Set(cur)
	q := append(sc.queue[:0], int32(cur))
	for i := 0; i < len(q); i++ {
		v := q[i]
		for _, h := range halves[off[v]:off[v+1]] {
			w := int(h.To)
			if ov.EdgeRemoved(int(h.ID)) || sc.reach.Test(w) {
				continue
			}
			if !seen.Test(w) {
				sc.queue = q
				return false
			}
			sc.reach.Set(w)
			q = append(q, int32(w))
		}
	}
	sc.queue = q
	return true
}

// HitSteps runs p until it first occupies target, returning the number
// of steps (0 when the walk already sits on target).
func HitSteps(p Process, target int, maxSteps int64) (int64, error) {
	if p.Current() == target {
		return 0, nil
	}
	if maxSteps <= 0 {
		maxSteps = defaultBudget(p.Graph().N())
	}
	var steps int64
	for {
		if steps >= maxSteps {
			return steps, fmt.Errorf("%w: vertex %d not hit", ErrStepBudget, target)
		}
		_, v := p.Step()
		steps++
		if v == target {
			return steps, nil
		}
	}
}

// defaultBudget is the cover drivers' step budget for maxSteps <= 0:
// 10000·size·(floor(log2 size)+1), where size is n for vertex cover and
// hitting and n+m when edges are covered too.
func defaultBudget(size int) int64 {
	b := int64(size) * 10000
	log := 1
	for s := size; s > 1; s >>= 1 {
		log++
	}
	return b * int64(log)
}
