package walk

import (
	"testing"

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
