package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// unitFilesIn counts the unit records in a checkpoint directory.
func unitFilesIn(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ent := range entries {
		if _, ok := unitFileIndex(ent.Name()); ok && ent.Type().IsRegular() {
			n++
		}
	}
	return n
}

// A failed write is reported naming its unit, wraps the cause, stops
// the run once, and the records queued behind it are drained without
// being written.
func TestJournalWriterFailureNamesUnitAndStops(t *testing.T) {
	cause := errors.New("disk full")
	var written []int
	stops := 0
	w := startJournalWriter(6, func(rec UnitRecord) error {
		if rec.Unit == 2 {
			return cause
		}
		written = append(written, rec.Unit)
		return nil
	}, func() { stops++ })
	for u := 0; u < 6; u++ {
		w.submit(UnitRecord{Unit: u, Point: "p", Trial: u})
	}
	err := w.close()
	if !errors.Is(err, cause) || !strings.Contains(err.Error(), `point "p" trial 2: journal`) {
		t.Fatalf("close returned %v, want the unit-2 write error", err)
	}
	// close returned, so the writer goroutine's writes happened before.
	if stops != 1 {
		t.Errorf("stop called %d times, want 1", stops)
	}
	if len(written) != 2 || written[0] != 0 || written[1] != 1 {
		t.Errorf("written units %v, want [0 1]", written)
	}
}

// A real write failure inside a run (unit 1's file name is taken by a
// directory, so its rename fails) comes back from the run as that
// unit's journal error, not as the cancellation it caused.
func TestRunReturnsJournalWriteError(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	cfg := ExpConfig{Seed: 31, Trials: 3, Workers: 1}
	dir := t.TempDir()
	_, err := e.Run(context.Background(), cfg, RunOptions{
		Checkpoint: &Checkpoint{Dir: dir},
		Progress: func(done, _ int) {
			// With one worker, unit 1 starts only after this returns.
			if done == 1 {
				if err := os.Mkdir(filepath.Join(dir, unitFile(1)), 0o755); err != nil {
					t.Error(err)
				}
			}
		},
	})
	if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "trial 1: journal") {
		t.Fatalf("run with an unwritable unit 1 returned %v, want unit 1's journal error", err)
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
	if got := unitFilesIn(t, dir); got != completed || got >= total {
		t.Errorf("%d unit files after cancel, want the %d completed units (of %d)", got, completed, total)
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
	if got := unitFilesIn(t, dir); got != total {
		t.Fatalf("%d unit files after the run, want %d", got, total)
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
