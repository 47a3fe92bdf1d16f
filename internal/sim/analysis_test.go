package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/spectral"
)

// countingTasks returns points×perPoint tasks that each count their
// runs in runs[p][k] and write p*perPoint+k to slots[p][k].
func countingTasks(points, perPoint int) (tasks [][]func() error, runs [][]atomic.Int32, slots [][]int) {
	tasks = make([][]func() error, points)
	runs = make([][]atomic.Int32, points)
	slots = make([][]int, points)
	for p := range tasks {
		runs[p] = make([]atomic.Int32, perPoint)
		slots[p] = make([]int, perPoint)
		for k := 0; k < perPoint; k++ {
			tasks[p] = append(tasks[p], func() error {
				runs[p][k].Add(1)
				slots[p][k] = p*perPoint + k
				return nil
			})
		}
	}
	return tasks, runs, slots
}

// Every task runs exactly once and fills its own slot, the same at one
// worker, at more workers than tasks, and at GOMAXPROCS.
func TestRunAnalysisRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		tasks, runs, slots := countingTasks(5, 3)
		if err := runAnalysis(workers, tasks); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for p := range runs {
			for k := range runs[p] {
				if n := runs[p][k].Load(); n != 1 {
					t.Errorf("workers=%d: task (%d,%d) ran %d times", workers, p, k, n)
				}
				if slots[p][k] != p*3+k {
					t.Errorf("workers=%d: slot (%d,%d) = %d", workers, p, k, slots[p][k])
				}
			}
		}
	}
}

// The error returned is the one a serial loop would hit first, even
// when a later point, or a later task of the same point, fails first in
// time: each gated task waits until the failure that must not win has
// happened. That failure is a later task, which runAnalysis feeds
// first, so the gate holds at one worker too. Every task still runs
// exactly once.
func TestRunAnalysisReturnsSeriallyFirstError(t *testing.T) {
	cases := []struct {
		name string
		// The gated task fails only after the first one has failed;
		// want is the (point, task) whose error must be returned.
		gated, first, want [2]int
	}{
		{"earlier point wins", [2]int{0, 1}, [2]int{2, 0}, [2]int{0, 1}},
		{"earlier task of a point wins", [2]int{1, 0}, [2]int{1, 1}, [2]int{1, 0}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 8} {
			tasks, runs, _ := countingTasks(3, 2)
			failed := make(chan struct{})
			errAt := func(p, k int) error { return fmt.Errorf("task (%d,%d) failed", p, k) }
			fail, gated := tasks[c.first[0]][c.first[1]], tasks[c.gated[0]][c.gated[1]]
			tasks[c.first[0]][c.first[1]] = func() error {
				fail()
				close(failed)
				return errAt(c.first[0], c.first[1])
			}
			tasks[c.gated[0]][c.gated[1]] = func() error {
				gated()
				<-failed
				return errAt(c.gated[0], c.gated[1])
			}
			err := runAnalysis(workers, tasks)
			if want := errAt(c.want[0], c.want[1]); err == nil || err.Error() != want.Error() {
				t.Errorf("%s workers=%d: got %v, want %v", c.name, workers, err, want)
			}
			for p := range runs {
				for k := range runs[p] {
					if n := runs[p][k].Load(); n != 1 {
						t.Errorf("%s workers=%d: task (%d,%d) ran %d times", c.name, workers, p, k, n)
					}
				}
			}
		}
	}
}

// lazyGap is bit for bit the lazy gap that spectral.LazyGap derives from
// the full ComputeGap summary.
func TestLazyGapMatchesComputeGap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	reg, err := gen.RandomRegularSW(r, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := gen.Circulant(60, []int{1, 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{reg, circ} {
		full, err := spectral.ComputeGap(g, spectral.Options{Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		got, err := lazyGap(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := spectral.LazyGap(full).Value; got != want {
			t.Errorf("n=%d: lazyGap %v, LazyGap(ComputeGap).Value %v", g.N(), got, want)
		}
	}
}
