package trace

import "repro/internal/walk"

// RunUntilEdgeCover drives p until every edge has been traversed (or
// the budget runs out) and returns the recording. Lazy stays (edge ID
// −1) are recorded as visits without traversals. maxSteps <= 0 means a
// budget of (n+m)·10⁶ steps.
func RunUntilEdgeCover(p walk.Process, maxSteps int64) (*Recorder, error) {
	if maxSteps <= 0 {
		maxSteps = int64(p.Graph().N()+p.Graph().M()) * 1000000
	}
	return record(p, maxSteps, false, true)
}
