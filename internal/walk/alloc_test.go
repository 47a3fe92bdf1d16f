package walk

import (
	"testing"

	"repro/internal/rng"
)

// The flat-arena refactor's contract: on a prebuilt (frozen) graph the
// hot paths allocate nothing — not per step, and not per Reset. These
// tests pin that with testing.AllocsPerRun so a regression fails CI
// rather than silently eroding sweep throughput.

func TestEProcessStepZeroAllocs(t *testing.T) {
	g := mustRegular(t, newRand(1), 500, 4)
	e := NewEProcess(g, rng.NewXoshiro256(2), nil, 0)
	if allocs := testing.AllocsPerRun(2000, func() { e.Step() }); allocs != 0 {
		t.Errorf("EProcess.Step allocates %.1f objects per call, want 0", allocs)
	}
}

func TestEProcessStepMathRandZeroAllocs(t *testing.T) {
	g := mustRegular(t, newRand(1), 500, 4)
	e := NewEProcess(g, newRand(2), nil, 0)
	if allocs := testing.AllocsPerRun(2000, func() { e.Step() }); allocs != 0 {
		t.Errorf("EProcess.Step (math/rand path) allocates %.1f objects per call, want 0", allocs)
	}
}

// The fused Uniform prune+choose blue path must allocate nothing. A
// fresh E-process on a large graph takes (almost) only blue steps, so
// pinning allocations over the first m/2 steps pins the fused path
// specifically; the BlueSteps count proves the fast path actually ran.
func TestFusedBlueStepZeroAllocs(t *testing.T) {
	g := mustRegular(t, newRand(21), 2000, 4)
	e := NewEProcess(g, rng.NewXoshiro256(22), nil, 0)
	if allocs := testing.AllocsPerRun(g.M()/2, func() { e.Step() }); allocs != 0 {
		t.Errorf("fused blue step allocates %.1f objects per call, want 0", allocs)
	}
	if s := e.Stats(); s.BlueSteps == 0 {
		t.Fatalf("no blue steps taken (stats %+v); the fused path was never exercised", s)
	}
}

// The package-level one-shot cover drivers recycle their CoverScratch
// through a pool, so after the pool is warm a one-shot call allocates
// nothing — the 7-allocs/op gap BENCH_5 measured between the non-reuse
// and reuse full-cover benchmarks came partly from the one-shot
// drivers' scratch construction, and this pins that part at zero.
func TestOneShotCoverPooledZeroAllocs(t *testing.T) {
	g := mustRegular(t, newRand(15), 200, 4)
	e := NewEProcess(g, rng.NewXoshiro256(16), nil, 0)
	if _, err := Cover(e, 0); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		e.Reset(0)
		if _, err := VertexCoverSteps(e, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("pooled one-shot VertexCoverSteps allocates %.1f objects per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(20, func() {
		e.Reset(0)
		if _, err := Cover(e, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("pooled one-shot Cover allocates %.1f objects per call, want 0", allocs)
	}
}

func TestSimpleStepZeroAllocs(t *testing.T) {
	g := mustRegular(t, newRand(3), 500, 4)
	w := NewSimple(g, rng.NewXoshiro256(4), 0)
	if allocs := testing.AllocsPerRun(2000, func() { w.Step() }); allocs != 0 {
		t.Errorf("Simple.Step allocates %.1f objects per call, want 0", allocs)
	}
}

// Reset must reuse all internal storage once warmed up on a graph.
func TestResetZeroAllocs(t *testing.T) {
	g := mustRegular(t, newRand(5), 500, 4)
	procs := map[string]Process{
		"eprocess":    NewEProcess(g, rng.NewXoshiro256(6), nil, 0),
		"eprocess-rr": NewEProcess(g, rng.NewXoshiro256(6), &RoundRobin{}, 0),
		"simple":      NewSimple(g, rng.NewXoshiro256(7), 0),
		"vprocess":    NewVProcess(g, rng.NewXoshiro256(8), 0),
		"choice":      NewChoice(g, rng.NewXoshiro256(9), 2, 0),
		"rotor":       NewRotor(g, rng.NewXoshiro256(10), 0),
		"least-used":  NewLeastUsedFirst(g, rng.NewXoshiro256(11), 0),
		"oldest":      NewOldestFirst(g, rng.NewXoshiro256(12), 0),
	}
	for name, p := range procs {
		p.Reset(0) // warm: first Reset may size internal storage
		if allocs := testing.AllocsPerRun(100, func() { p.Reset(1) }); allocs != 0 {
			t.Errorf("%s: Reset allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}

// A full trial loop — Reset plus cover with reused scratch — must also
// be allocation-free, since that is what each sim worker runs per trial.
func TestCoverLoopZeroAllocs(t *testing.T) {
	g := mustRegular(t, newRand(13), 200, 4)
	e := NewEProcess(g, rng.NewXoshiro256(14), nil, 0)
	var sc CoverScratch
	e.Reset(0)
	if _, err := sc.Cover(e, 0); err != nil { // warm scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		e.Reset(0)
		if _, err := sc.Cover(e, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reset+Cover trial loop allocates %.1f objects, want 0", allocs)
	}
}

// The choice loop's trial is allocation-free too: Reset plus either
// cover driver with reused scratch, for RWC(2) and the simple walk,
// which both run through coverChoice with its draws held in locals.
func TestChoiceCoverLoopZeroAllocs(t *testing.T) {
	g := mustRegular(t, newRand(17), 200, 4)
	for name, p := range map[string]Process{
		"rwc2":   NewChoice(g, rng.NewXoshiro256(18), 2, 0),
		"simple": NewSimple(g, rng.NewXoshiro256(19), 0),
	} {
		var sc CoverScratch
		p.Reset(0)
		if _, err := sc.Cover(p, 0); err != nil { // warm scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			p.Reset(0)
			if _, err := sc.Cover(p, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Reset+Cover allocates %.1f objects, want 0", name, allocs)
		}
		allocs = testing.AllocsPerRun(20, func() {
			p.Reset(0)
			if _, err := sc.VertexCoverSteps(p, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Reset+VertexCoverSteps allocates %.1f objects, want 0", name, allocs)
		}
	}
}
