// Package trace records walk trajectories: first-visit times, visit
// counts, and vertex coverage curves (steps to visit a given fraction
// of the vertices). The paper's Figure 1 reports only the final
// cover time; coverage curves expose the mechanism behind it — the
// E-process's blue phases sweep most of the graph in the first ≈ m
// steps, leaving a short red-walk tail, whereas the SRW pays its
// coupon-collector tail across the whole run.
package trace

import (
	"errors"
	"math"
	"sort"

	"repro/internal/walk"
)

// Recorder accumulates per-vertex and per-edge visitation statistics
// along a single trajectory.
type Recorder struct {
	// FirstVisit[v] is the step of the first visit to vertex v
	// (0 for the start vertex, −1 if never visited).
	FirstVisit []int64
	// FirstTraversal[e] is the step of the first traversal of edge e
	// (−1 if never traversed).
	FirstTraversal []int64
	// Visits[v] counts occupations of v (start counts once).
	Visits []int64
	// Steps is the number of recorded steps.
	Steps int64
}

// NewRecorder returns a Recorder for a walk of p's graph starting at
// p's current vertex.
func NewRecorder(p walk.Process) *Recorder {
	g := p.Graph()
	r := &Recorder{
		FirstVisit:     make([]int64, g.N()),
		FirstTraversal: make([]int64, g.M()),
		Visits:         make([]int64, g.N()),
	}
	for i := range r.FirstVisit {
		r.FirstVisit[i] = -1
	}
	for i := range r.FirstTraversal {
		r.FirstTraversal[i] = -1
	}
	start := p.Current()
	r.FirstVisit[start] = 0
	r.Visits[start] = 1
	return r
}

// Observe records one step's outcome.
func (r *Recorder) Observe(edgeID, vertex int) {
	r.Steps++
	if edgeID >= 0 && r.FirstTraversal[edgeID] == -1 {
		r.FirstTraversal[edgeID] = r.Steps
	}
	if r.FirstVisit[vertex] == -1 {
		r.FirstVisit[vertex] = r.Steps
	}
	r.Visits[vertex]++
}

// Run drives p for exactly steps steps, recording each.
func Run(p walk.Process, steps int64) *Recorder {
	r := NewRecorder(p)
	for i := int64(0); i < steps; i++ {
		e, v := p.Step()
		r.Observe(e, v)
	}
	return r
}

// RunUntilVertexCover drives p until all vertices are visited (or the
// budget runs out) and returns the recording. maxSteps <= 0 means a
// budget of n·10⁶ steps.
func RunUntilVertexCover(p walk.Process, maxSteps int64) (*Recorder, error) {
	if maxSteps <= 0 {
		maxSteps = int64(p.Graph().N()) * 1000000
	}
	return record(p, maxSteps, true, false)
}

// record drives p through walk's cover loop toward vertex and/or edge
// cover, observing every step into a fresh Recorder.
func record(p walk.Process, maxSteps int64, vertices, edges bool) (*Recorder, error) {
	r := NewRecorder(p)
	var sc walk.CoverScratch
	_, _, err := sc.Drive(p, maxSteps, vertices, edges, func(e, v int) error {
		r.Observe(e, v)
		return nil
	})
	return r, err
}

// VertexCoverageCurve returns, for each fraction f in fractions
// (ascending, within (0,1]), the first step at which at least
// ceil(f·n) vertices had been visited. Unreached fractions give −1.
func (r *Recorder) VertexCoverageCurve(fractions []float64) ([]int64, error) {
	times := make([]int64, 0, len(r.FirstVisit))
	for _, t := range r.FirstVisit {
		if t >= 0 {
			times = append(times, t)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	out := make([]int64, len(fractions))
	for i, f := range fractions {
		if f <= 0 || f > 1 {
			return nil, errors.New("trace: fractions must lie in (0,1]")
		}
		// k = ceil(f·total): the smallest count that reaches fraction f.
		k := int(math.Ceil(f * float64(len(r.FirstVisit))))
		if k < 1 {
			k = 1
		}
		if k > len(times) {
			out[i] = -1
			continue
		}
		out[i] = times[k-1]
	}
	return out, nil
}
