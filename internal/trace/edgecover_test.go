package trace

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/walk"
)

func TestRunUntilEdgeCover(t *testing.T) {
	g, err := gen.RandomRegularSW(newRand(20), 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := walk.NewEProcess(g, newRand(21), nil, 0)
	r, err := RunUntilEdgeCover(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.edgesSeen != g.M() {
		t.Fatalf("edges seen = %d, want %d", r.edgesSeen, g.M())
	}
	// Every vertex must have been visited too (edge cover ⊃ vertex
	// cover on graphs without isolated vertices).
	if r.verticesSeen != g.N() {
		t.Errorf("vertices seen = %d, want %d", r.verticesSeen, g.N())
	}
}

func TestRunUntilEdgeCoverBudget(t *testing.T) {
	g, err := gen.Cycle(30)
	if err != nil {
		t.Fatal(err)
	}
	p := walk.NewSimple(g, newRand(22), 0)
	if _, err := RunUntilEdgeCover(p, 5); err == nil {
		t.Error("tiny budget should fail")
	}
}

func TestPhaseSplit(t *testing.T) {
	g, err := gen.RandomRegularSW(newRand(23), 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := walk.NewEProcess(g, newRand(24), nil, 0)
	r, err := RunUntilVertexCover(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Split the vertices by first visit: within the first t steps,
	// after them, or never.
	split := func(t int64) (atT, after, never int) {
		for _, fv := range r.FirstVisit {
			switch {
			case fv < 0:
				never++
			case fv <= t:
				atT++
			default:
				after++
			}
		}
		return atT, after, never
	}
	atM, after, never := split(int64(g.M()))
	if never != 0 {
		t.Errorf("never = %d after full cover", never)
	}
	if atM+after != g.N() {
		t.Errorf("split %d+%d != n", atM, after)
	}
	// The E-process discovers the overwhelming majority of vertices
	// within its first m steps (mostly blue).
	if atM < g.N()*9/10 {
		t.Errorf("only %d/%d vertices within m steps", atM, g.N())
	}
	// Degenerate boundary: t = 0 counts only the start vertex.
	if at0, _, _ := split(0); at0 != 1 {
		t.Errorf("t=0 split = %d, want 1", at0)
	}
}
