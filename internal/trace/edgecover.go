package trace

import (
	"fmt"

	"repro/internal/walk"
)

// RunUntilEdgeCover drives p until every edge has been traversed (or
// the budget runs out) and returns the recording. Lazy stays (edge ID
// −1) are recorded as visits without traversals.
func RunUntilEdgeCover(p walk.Process, maxSteps int64) (*Recorder, error) {
	g := p.Graph()
	if maxSteps <= 0 {
		maxSteps = int64(g.N()+g.M()) * 1000000
	}
	r := NewRecorder(p)
	for r.edgesSeen < g.M() {
		if r.Steps >= maxSteps {
			return r, fmt.Errorf("%w: %d edges untraversed", walk.ErrStepBudget, g.M()-r.edgesSeen)
		}
		e, v := p.Step()
		r.Observe(e, v)
	}
	return r, nil
}
