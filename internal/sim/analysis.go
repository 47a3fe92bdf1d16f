package sim

import (
	"context"

	"repro/internal/graph"
	"repro/internal/spectral"
	"repro/internal/walk"
)

// runAnalysis runs the independent post-sweep analysis tasks of a
// Finish on at most workers goroutines (≤ 0 means GOMAXPROCS), through
// the sweep's runUnits pool: tasks[p] are point p's tasks, in the order
// a serial loop over the points would run them. Every task runs exactly
// once, and the returned error is the one that serial loop would hit
// first: the earliest failing point's earliest failing task.
//
// The tasks are fed in reverse, last point first. At the Scale the
// benchmark runs, thm3's costliest single task, the λ2 of lps(5,13),
// sits at its last point, so starting it first shortens the join; not
// every plan orders its costs that way at every Scale. The order
// changes no result.
//
// A task must write only its own result slot. It may read the points'
// Rep graphs, present only at points that declare PointSpec.KeepRep,
// through any accessor: graphs are immutable.
func runAnalysis(workers int, tasks [][]func() error) error {
	var flat []func() error
	for _, pt := range tasks {
		flat = append(flat, pt...)
	}
	errs := make([]error, len(flat))
	workers = Config{Workers: workers}.withDefaults().Workers
	runUnits(context.Background(), workers, len(flat), nil, func(i int, _ *walk.CoverScratch) error {
		i = len(flat) - 1 - i
		errs[i] = flat[i]()
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// lazyGap returns the spectral gap 1 − λmax' of the lazy walk
// P' = (P+I)/2 on g, where λmax' = (λ2+1)/2. It computes exactly
// spectral.LazyGap(spectral.ComputeGap(g, ...)).Value, without the λn
// iteration that value never reads.
func lazyGap(g *graph.Graph) (float64, error) {
	l2, err := spectral.Lambda2(g, spectral.Options{Tol: 1e-8})
	if err != nil {
		return 0, err
	}
	return 1 - (l2+1)/2, nil
}
