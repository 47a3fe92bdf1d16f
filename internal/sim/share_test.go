package sim

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/walk"
)

// A graph straight from a generator is shared across goroutines with no
// preparation: ComputeGap (itself two goroutines), two E-process cover
// runs and an E-process on an Overlay of it all run at once on one
// instance, and each gives what it gives alone. CI runs this under
// -race, which catches any write a reader makes to the graph.
func TestGeneratedGraphsShareWithoutPreparation(t *testing.T) {
	builds := map[string]func() (*graph.Graph, error){
		"torus":   func() (*graph.Graph, error) { return gen.Torus(12, 12) },
		"regular": func() (*graph.Graph, error) { return gen.RandomRegular(rand.New(rand.NewSource(5)), 200, 4) },
	}
	gap := func(g *graph.Graph) (spectral.Gap, error) {
		return spectral.ComputeGap(g, spectral.Options{Tol: 1e-8})
	}
	cover := func(g *graph.Graph, seed uint64) (int64, error) {
		var sc walk.CoverScratch
		return sc.VertexCoverSteps(walk.NewEProcess(g, rng.NewXoshiro256(seed), nil, 0), 0)
	}
	// masked removes every third edge through an overlay and takes 2000
	// steps on what is left, returning the walker's position.
	masked := func(g *graph.Graph) (int, error) {
		o := graph.NewOverlay(g)
		for id := 0; id < g.M(); id += 3 {
			if err := o.RemoveEdge(id); err != nil {
				return 0, err
			}
		}
		e := walk.NewEProcessOn(o, rng.NewXoshiro256(9), nil, 0)
		for i := 0; i < 2000; i++ {
			e.Step()
		}
		return e.Current(), nil
	}
	for name, build := range builds {
		// The expected values come from a second instance, so the shared
		// one is touched by nothing before the goroutines start.
		ref, err := build()
		if err != nil {
			t.Fatal(err)
		}
		wantGap, err := gap(ref)
		if err != nil {
			t.Fatal(err)
		}
		wantCover := [2]int64{}
		for i := range wantCover {
			if wantCover[i], err = cover(ref, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		wantPos, err := masked(ref)
		if err != nil {
			t.Fatal(err)
		}

		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var gotGap spectral.Gap
		var gotCover [2]int64
		var gotPos int
		errs := make([]error, 4)
		wg.Add(4)
		go func() { defer wg.Done(); gotGap, errs[0] = gap(g) }()
		for i := range gotCover {
			go func() { defer wg.Done(); gotCover[i], errs[1+i] = cover(g, uint64(i+1)) }()
		}
		go func() { defer wg.Done(); gotPos, errs[3] = masked(g) }()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if gotGap != wantGap || gotCover != wantCover || gotPos != wantPos {
			t.Errorf("%s: concurrent (gap %+v, covers %v, overlay walker at %d), alone (%+v, %v, %d)",
				name, gotGap, gotCover, gotPos, wantGap, wantCover, wantPos)
		}
	}
}
