package walk

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// benchEProcess builds the step benchmark's E-process on the fast
// concrete-generator path — the configuration internal/sim uses for
// production sweeps. BenchmarkEProcessStepMathRand covers the
// math/rand interop path.
func benchEProcess(b *testing.B, n, d int) *EProcess {
	b.Helper()
	g := mustRegular(b, newRand(1), n, d)
	return NewEProcess(g, rng.NewXoshiro256(2), nil, 0)
}

func BenchmarkEProcessStep(b *testing.B) {
	e := benchEProcess(b, 10000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEProcessStepMathRand(b *testing.B) {
	g := mustRegular(b, newRand(1), 10000, 4)
	e := NewEProcess(g, newRand(2), nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEProcessStepOverlay is the dynamic step on an overlay with
// nothing removed: the mask scan's cost next to BenchmarkEProcessStep
// on the same graph and generator.
func BenchmarkEProcessStepOverlay(b *testing.B) {
	g := mustRegular(b, newRand(1), 10000, 4)
	e := NewEProcessOn(graph.NewOverlay(g), rng.NewXoshiro256(2), nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEProcessStepOverlayChurn adds failure/repair churn at rate
// 0.01 per step, drawn from the walk's generator in the fixed coin
// order of the sim layer's ChurnSchedule (fail coin, then repair coin).
func BenchmarkEProcessStepOverlayChurn(b *testing.B) {
	const rate = 0.01
	g := mustRegular(b, newRand(1), 10000, 4)
	o := graph.NewOverlay(g)
	r := rng.NewRand(rng.NewXoshiro256(2))
	e := NewEProcessOn(o, r, nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Float64() < rate && o.LiveEdges() > 1 {
			if err := o.RemoveEdge(o.LiveEdgeAt(r.Intn(o.LiveEdges()))); err != nil {
				b.Fatal(err)
			}
		}
		if r.Float64() < rate && o.RemovedEdges() > 0 {
			if err := o.RestoreEdge(o.RemovedEdgeAt(r.Intn(o.RemovedEdges()))); err != nil {
				b.Fatal(err)
			}
		}
		e.Step()
	}
}

func BenchmarkSimpleStep(b *testing.B) {
	g := mustRegular(b, newRand(3), 10000, 4)
	w := NewSimple(g, rng.NewXoshiro256(4), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}

func BenchmarkChoiceStep(b *testing.B) {
	g := mustRegular(b, newRand(5), 10000, 4)
	c := NewChoice(g, rng.NewXoshiro256(6), 2, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

func BenchmarkRotorStep(b *testing.B) {
	g := mustRegular(b, newRand(7), 10000, 4)
	ro := NewRotor(g, rng.NewXoshiro256(8), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ro.Step()
	}
}

func BenchmarkEProcessFullVertexCover(b *testing.B) {
	g := mustRegular(b, newRand(9), 5000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEProcess(g, rng.NewXoshiro256(uint64(i)), nil, 0)
		if _, err := VertexCoverSteps(e, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEProcessFullVertexCoverReuse measures the steady-state trial
// loop the sim worker pool runs: one process and one CoverScratch,
// reset between trials — zero allocations per trial.
func BenchmarkEProcessFullVertexCoverReuse(b *testing.B) {
	g := mustRegular(b, newRand(9), 5000, 4)
	e := NewEProcess(g, rng.NewXoshiro256(11), nil, 0)
	var sc CoverScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(0)
		if _, err := sc.VertexCoverSteps(e, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusedCover measures a sim worker's cover trial: Reset plus a
// full vertex-and-edge Cover with reused scratch, which a fresh
// Uniform-rule process runs through the fused cover loop.
func BenchmarkFusedCover(b *testing.B) {
	g := mustRegular(b, newRand(9), 5000, 4)
	e := NewEProcess(g, rng.NewXoshiro256(11), nil, 0)
	var sc CoverScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(0)
		if _, err := sc.Cover(e, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSRWFullVertexCover(b *testing.B) {
	g := mustRegular(b, newRand(10), 5000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewSimple(g, rng.NewXoshiro256(uint64(i)), 0)
		if _, err := VertexCoverSteps(w, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChoiceCover measures an RWC(2) cover trial as the compare
// experiment runs it: Reset plus a full vertex-and-edge Cover with
// reused scratch, which every *Choice runs through coverChoice.
func BenchmarkChoiceCover(b *testing.B) {
	g := mustRegular(b, newRand(12), 5000, 4)
	c := NewChoice(g, rng.NewXoshiro256(13), 2, 0)
	var sc CoverScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset(0)
		if _, err := sc.Cover(c, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepDrivenCover measures the per-Step cover loop, which
// rotor and the locally fair walks take (no fused loop fits them):
// Reset plus a full vertex-and-edge Cover of a least-used-first walk
// with reused scratch.
func BenchmarkStepDrivenCover(b *testing.B) {
	g := mustRegular(b, newRand(15), 5000, 4)
	w := NewLeastUsedFirst(g, rng.NewXoshiro256(16), 0)
	var sc CoverScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset(0)
		if _, err := sc.Cover(w, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriveObserved measures the observed cover loop the online
// analyses run on: Reset plus a full vertex-and-edge Drive of a fresh
// Uniform E-process with a no-op observer, which keeps it off the fused
// loop, with reused scratch.
func BenchmarkDriveObserved(b *testing.B) {
	g := mustRegular(b, newRand(9), 5000, 4)
	e := NewEProcess(g, rng.NewXoshiro256(11), nil, 0)
	var sc CoverScratch
	each := func(int, int) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(0)
		if _, _, err := sc.Drive(e, 0, true, true, each); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrozenChurnCover measures one pcfcover trial at its largest
// freeze rate: a censored vertex cover of a fresh overlay under
// permanent edge failures at rate 0.25 per step (the fail coin of the
// sim layer's frozen ChurnSchedule), budget 256·n, declared
// remove-only so the run ends once the walker is stranded.
func BenchmarkFrozenChurnCover(b *testing.B) {
	const n, rate = 1920, 0.25
	g := mustRegular(b, newRand(14), n, 4)
	var sc CoverScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := graph.NewOverlay(g)
		e := NewEProcessOn(o, rng.NewXoshiro256(uint64(i)), nil, 0)
		sc.VertexCoverCensored(e, 256*n, removeAtRate(rate, int64(i))(o), true)
	}
}
