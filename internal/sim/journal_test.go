package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/walk"
)

// The writer group-commits every record queued while it was busy as one
// batch. A failed commit is reported naming the batch's first unit,
// wraps the cause, stops the run once, and the records queued behind it
// are drained without being written.
func TestJournalWriterFailureNamesUnitAndStops(t *testing.T) {
	dir := t.TempDir()
	seg, err := createSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	entered, release, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{}, 2)
	var batches []int
	w := startJournalWriter(8, func(frames []byte) error {
		var n int
		if err := readSegment(frames, func(*UnitRecord) error { n++; return nil }); err != nil {
			t.Error(err)
		}
		batches = append(batches, n)
		if len(batches) == 1 {
			// Hold the first commit until units 1–4 are queued, then
			// close the segment under the writer: the next commit's
			// write fails for real.
			close(entered)
			<-release
			defer seg.Close()
		}
		return commitFrames(seg, frames)
	}, func() { stopped <- struct{}{} })
	w.submit(UnitRecord{Unit: 0, Point: "p", Trial: 0})
	<-entered
	for u := 1; u <= 4; u++ {
		w.submit(UnitRecord{Unit: u, Point: "p", Trial: u})
	}
	close(release)
	<-stopped
	w.submit(UnitRecord{Unit: 5, Point: "p", Trial: 5})
	w.submit(UnitRecord{Unit: 6, Point: "p", Trial: 6})
	err = w.close()
	if !errors.Is(err, os.ErrClosed) || !strings.Contains(err.Error(), `point "p" trial 1 and 3 later units: journal`) {
		t.Fatalf("close returned %v, want the failed batch's error naming unit 1", err)
	}
	// close returned, so the writer goroutine's work happened before.
	if len(stopped) != 0 {
		t.Error("stop called more than once")
	}
	if !slices.Equal(batches, []int{1, 4}) {
		t.Errorf("commit batch sizes %v, want [1 4]", batches)
	}
	if got := journaledUnits(t, dir); got != 1 {
		t.Errorf("%d units on disk, want only unit 0", got)
	}
}

// A journal failure inside a run — unit 1's record cannot be encoded
// (its measurement is NaN, which JSON cannot represent), so the writer
// goroutine fails and cancels the run — is returned as that unit's
// journal error, not as the cancellation it caused, and the unit
// committed before it stays durable.
func TestRunReturnsJournalWriteError(t *testing.T) {
	const trials = 100
	arm := Arm{Name: "a", Run: func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
		switch {
		case trial == 1:
			return Measurement{Vertex: math.NaN()}, nil
		case trial > 1:
			// Keep the run going well past the writer's failure, so
			// the run is cancelled before its last unit completes.
			time.Sleep(2 * time.Millisecond)
		}
		return Measurement{Vertex: float64(trial)}, nil
	}}
	pl := &SweepPlan{
		Config: Config{Seed: 31, Trials: trials, Workers: 1},
		Points: []PointSpec{{Key: "p", Salt: Salt(saltRun, 1), Graph: func(*rand.Rand) (*graph.Graph, error) { return gen.Cycle(4) }, Arms: []Arm{arm}}},
	}
	dir := t.TempDir()
	completed := 0
	_, err := pl.RunContext(context.Background(), RunOptions{
		Checkpoint: &Checkpoint{Dir: dir},
		Progress: func(done, _ int) {
			completed = done
			// With one worker, unit 1 starts only after this returns:
			// let unit 0 commit alone first.
			if done == 1 {
				deadline := time.Now().Add(10 * time.Second)
				for journaledUnits(t, dir) < 1 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}
		},
	})
	if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), `point "p" trial 1: journal`) {
		t.Fatalf("run with an unencodable unit 1 returned %v, want unit 1's journal error", err)
	}
	if completed >= trials {
		t.Errorf("all %d units ran, want the journal failure to cancel the rest", trials)
	}
	if got := journaledUnits(t, dir); got != 1 {
		t.Errorf("%d units journaled, want only unit 0", got)
	}
}

// Cancelling a journaled run mid-way drains the writer: every unit the
// run completed is on disk when it returns, and no goroutine is left.
func TestCancelDrainsJournalWriter(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	cfg := ExpConfig{Seed: 37, Trials: 4, Workers: 2}
	total, err := e.UnitCount(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	completed := 0
	_, err = e.Run(ctx, cfg, RunOptions{
		Checkpoint: &Checkpoint{Dir: dir},
		Progress: func(done, _ int) {
			completed = done
			if done >= 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if got := journaledUnits(t, dir); got != completed || got >= total {
		t.Errorf("%d units journaled after cancel, want the %d completed units (of %d)", got, completed, total)
	}
	// Every goroutine the run started has finished its work by the time
	// it returned; allow them a moment to be reaped.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after the cancelled run, %d before", after, before)
	}
}

// A completed journaled run returns only when every unit is durable:
// coverage is full and the journal merges to the plain run's bytes.
// It leaves the manifest and exactly one segment, and nothing else.
func TestCompletedRunJournalIsDurable(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	cfg := ExpConfig{Seed: 41, Trials: 3}
	total, err := e.UnitCount(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := e.Run(context.Background(), cfg, RunOptions{Checkpoint: &Checkpoint{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if got := journaledUnits(t, dir); got != total {
		t.Fatalf("%d units journaled after the run, want %d", got, total)
	}
	if names := dirNames(t, dir); len(names) != 2 || names[0] != manifestFile || !isSegment(names[1]) {
		t.Errorf("completed run left %v, want the manifest and one segment", names)
	}
	done, _, err := ShardCoverage(e, cfg, dir, Shard{Index: 0, Count: 1})
	if err != nil || done != total {
		t.Fatalf("coverage (%d, %v), want %d", done, err, total)
	}
	merged, err := MergeShards(context.Background(), e, cfg, []string{dir}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantTable := resultBytes(t, res)
	if j, tb := resultBytes(t, merged); j != wantJSON || tb != wantTable {
		t.Errorf("journal merges to different bytes:\n--- run ---\n%s--- merged ---\n%s", wantTable, tb)
	}
}

// dirNames lists a directory's entry names in order.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	return names
}

// Every writer opens a segment of its own: a resume adds one segment
// beside the interrupted run's, a resume with nothing left to run adds
// none, and two RunShards racing on one
// directory — a dist block reassigned while its first holder was slow,
// not dead — leave two segments that merge to the plain run's bytes.
func TestEveryWriterOpensItsOwnSegment(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	cfg := ExpConfig{Seed: 43, Trials: 3, Workers: 2}
	clean, err := e.Run(context.Background(), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cleanJSON, cleanTable := resultBytes(t, clean)
	same := func(what string, res *Result) {
		t.Helper()
		if j, tb := resultBytes(t, res); j != cleanJSON || tb != cleanTable {
			t.Errorf("%s differs from the plain run:\n--- clean ---\n%s--- got ---\n%s", what, cleanTable, tb)
		}
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	_, err = e.Run(ctx, cfg, RunOptions{
		Checkpoint: &Checkpoint{Dir: dir},
		Progress: func(done, _ int) {
			if done >= 2 {
				cancel()
			}
		},
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}
	if n := len(segmentsIn(t, dir)); n != 1 {
		t.Fatalf("interrupted run left %d segments, want 1", n)
	}
	resumed, err := e.Run(context.Background(), cfg, RunOptions{Checkpoint: &Checkpoint{Dir: dir, Resume: true}})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(segmentsIn(t, dir)); n != 2 {
		t.Errorf("resume left %d segments, want 2", n)
	}
	same("resumed run", resumed)
	// A resume with nothing left to run writes nothing.
	if _, err := e.Run(context.Background(), cfg, RunOptions{Checkpoint: &Checkpoint{Dir: dir, Resume: true}}); err != nil {
		t.Fatal(err)
	}
	if n := len(segmentsIn(t, dir)); n != 2 {
		t.Errorf("fully restored resume left %d segments, want still 2", n)
	}

	// Neither racing writer completes a second unit before both have
	// completed one, so both have opened a segment.
	shared := t.TempDir()
	var wg, bothStarted sync.WaitGroup
	bothStarted.Add(2)
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = e.RunShard(context.Background(), cfg, Shard{Index: 0, Count: 1}, RunOptions{
				Checkpoint: &Checkpoint{Dir: shared, Resume: true},
				Progress: func(done, _ int) {
					if done == 1 {
						bothStarted.Done()
						bothStarted.Wait()
					}
				},
			})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, shared); len(names) != 3 || len(segmentsIn(t, shared)) != 2 {
		t.Errorf("two racing writers left %v, want the manifest and two segments", names)
	}
	merged, err := MergeShards(context.Background(), e, cfg, []string{shared}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	same("merge of two racing writers", merged)
}
