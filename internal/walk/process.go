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
// a default of 10000·n·ceil(log2 n) steps, far beyond any process here
// on connected graphs.
func VertexCoverSteps(p Process, maxSteps int64) (int64, error) {
	sc := scratchPool.Get().(*CoverScratch)
	defer scratchPool.Put(sc)
	return sc.VertexCoverSteps(p, maxSteps)
}

// VertexCoverSteps is the scratch-reusing form of the package-level
// function. A fresh static Uniform-rule *EProcess runs through the fused
// cover loop (coverFused); every other process is driven by Step.
func (sc *CoverScratch) VertexCoverSteps(p Process, maxSteps int64) (int64, error) {
	g := p.Graph()
	n := g.N()
	if maxSteps <= 0 {
		maxSteps = defaultBudget(n)
	}
	if e, ok := p.(*EProcess); ok && e.fusable() {
		_, steps, leftV, _ := sc.coverFused(e, maxSteps, false)
		if leftV > 0 {
			return steps, budgetError(false, leftV, 0, steps)
		}
		return steps, nil
	}
	seen := sc.vertexSeen(n)
	seen.Set(p.Current())
	remaining := n - 1
	var steps int64
	for remaining > 0 {
		if steps >= maxSteps {
			return steps, budgetError(false, remaining, 0, steps)
		}
		_, v := p.Step()
		steps++
		if !seen.Test(v) {
			seen.Set(v)
			remaining--
		}
	}
	return steps, nil
}

// EdgeCoverSteps runs p until every edge of its graph has been
// traversed at least once and returns the number of steps taken.
func EdgeCoverSteps(p Process, maxSteps int64) (int64, error) {
	sc := scratchPool.Get().(*CoverScratch)
	defer scratchPool.Put(sc)
	return sc.EdgeCoverSteps(p, maxSteps)
}

// EdgeCoverSteps is the scratch-reusing form of the package-level
// function.
func (sc *CoverScratch) EdgeCoverSteps(p Process, maxSteps int64) (int64, error) {
	g := p.Graph()
	m := g.M()
	if maxSteps <= 0 {
		maxSteps = defaultBudget(g.N() + m)
	}
	seen := sc.edgeSeen(m)
	remaining := m
	var steps int64
	for remaining > 0 {
		if steps >= maxSteps {
			return steps, fmt.Errorf("%w: %d edges untraversed after %d steps", ErrStepBudget, remaining, steps)
		}
		e, _ := p.Step()
		steps++
		if e >= 0 && !seen.Test(e) { // e < 0 marks a lazy stay: no edge crossed
			seen.Set(e)
			remaining--
		}
	}
	return steps, nil
}

// CoverTimes reports both cover times from a single trajectory: the
// step at which the last vertex was first visited and the step at which
// the last edge was first traversed.
type CoverTimes struct {
	Vertex int64 // steps to visit all vertices
	Edge   int64 // steps to traverse all edges
}

// Cover runs p until both vertices and edges are covered.
func Cover(p Process, maxSteps int64) (CoverTimes, error) {
	sc := scratchPool.Get().(*CoverScratch)
	defer scratchPool.Put(sc)
	return sc.Cover(p, maxSteps)
}

// Cover is the scratch-reusing form of the package-level function. A
// fresh static Uniform-rule *EProcess runs through the fused cover loop
// (coverFused); every other process is driven by Step.
func (sc *CoverScratch) Cover(p Process, maxSteps int64) (CoverTimes, error) {
	g := p.Graph()
	n, m := g.N(), g.M()
	if maxSteps <= 0 {
		maxSteps = defaultBudget(n + m)
	}
	if e, ok := p.(*EProcess); ok && e.fusable() {
		ct, steps, leftV, leftE := sc.coverFused(e, maxSteps, true)
		if leftV|leftE != 0 {
			return ct, budgetError(true, leftV, leftE, steps)
		}
		return ct, nil
	}
	seenV := sc.vertexSeen(n)
	seenV.Set(p.Current())
	seenE := sc.edgeSeen(m)
	leftV, leftE := n-1, m
	var ct CoverTimes
	var steps int64
	for leftV > 0 || leftE > 0 {
		if steps >= maxSteps {
			return ct, budgetError(true, leftV, leftE, steps)
		}
		e, v := p.Step()
		steps++
		if leftV > 0 && !seenV.Test(v) {
			seenV.Set(v)
			leftV--
			if leftV == 0 {
				ct.Vertex = steps
			}
		}
		if leftE > 0 && e >= 0 && !seenE.Test(e) { // e < 0 marks a lazy stay
			seenE.Set(e)
			leftE--
			if leftE == 0 {
				ct.Edge = steps
			}
		}
	}
	return ct, nil
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
func (sc *CoverScratch) VertexCoverCensored(p Process, maxSteps int64, hook func()) (CoverOutcome, error) {
	g := p.Graph()
	n := g.N()
	if maxSteps <= 0 {
		maxSteps = defaultBudget(n)
	}
	seen := sc.vertexSeen(n)
	seen.Set(p.Current())
	remaining := n - 1
	var steps int64
	for remaining > 0 && steps < maxSteps {
		if hook != nil {
			hook()
		}
		_, v := p.Step()
		steps++
		if !seen.Test(v) {
			seen.Set(v)
			remaining--
		}
	}
	return CoverOutcome{Steps: steps, Uncovered: remaining}, nil
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

func defaultBudget(size int) int64 {
	b := int64(size) * 10000
	log := 1
	for s := size; s > 1; s >>= 1 {
		log++
	}
	return b * int64(log)
}
