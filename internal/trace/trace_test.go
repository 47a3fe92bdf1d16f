package trace

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/walk"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestRecorderBasics(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	p := walk.NewSimple(g, newRand(1), 2)
	r := NewRecorder(p)
	if r.FirstVisit[2] != 0 || r.Visits[2] != 1 {
		t.Error("start vertex not pre-recorded")
	}
	if r.verticesSeen != 1 || r.edgesSeen != 0 {
		t.Error("fresh recorder counts wrong")
	}
	e, v := p.Step()
	r.Observe(e, v)
	if r.Steps != 1 || r.verticesSeen != 2 || r.edgesSeen != 1 {
		t.Errorf("after one step: steps=%d seenV=%d seenE=%d", r.Steps, r.verticesSeen, r.edgesSeen)
	}
	if r.FirstVisit[v] != 1 || r.FirstTraversal[e] != 1 {
		t.Error("first-visit bookkeeping wrong")
	}
}

func TestRunUntilVertexCover(t *testing.T) {
	g, err := gen.RandomRegularSW(newRand(2), 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := walk.NewEProcess(g, newRand(3), nil, 0)
	r, err := RunUntilVertexCover(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.verticesSeen != g.N() {
		t.Fatal("cover incomplete")
	}
	cover := int64(0)
	for _, fv := range r.FirstVisit {
		if fv < 0 {
			t.Fatal("a vertex has no first visit after cover")
		}
		cover = max(cover, fv)
	}
	if cover != r.Steps {
		t.Errorf("cover step %d should equal total steps %d (run stops at cover)", cover, r.Steps)
	}
}

func TestCoverageCurveMonotone(t *testing.T) {
	g, err := gen.RandomRegularSW(newRand(4), 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := walk.NewEProcess(g, newRand(5), nil, 0)
	r, err := RunUntilVertexCover(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	fractions := []float64{0.25, 0.5, 0.75, 0.9, 1}
	curve, err := r.VertexCoverageCurve(fractions)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Errorf("coverage curve not monotone: %v", curve)
		}
	}
	// The run stops at cover, so full coverage is its last step.
	if curve[len(curve)-1] != r.Steps {
		t.Errorf("full coverage %d != cover step %d", curve[len(curve)-1], r.Steps)
	}
}

func TestCoverageCurveErrorsAndUnreached(t *testing.T) {
	g, err := gen.Cycle(10)
	if err != nil {
		t.Fatal(err)
	}
	p := walk.NewSimple(g, newRand(6), 0)
	r := Run(p, 2) // far from covering
	if _, err := r.VertexCoverageCurve([]float64{0}); err == nil {
		t.Error("fraction 0 should fail")
	}
	if _, err := r.VertexCoverageCurve([]float64{1.5}); err == nil {
		t.Error("fraction >1 should fail")
	}
	curve, err := r.VertexCoverageCurve([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if curve[0] != -1 {
		t.Error("unreached fraction should give -1")
	}
}

func TestEProcessFrontLoadsCoverage(t *testing.T) {
	// The E-process reaches 90% vertex coverage within ~1.2m steps on
	// an even-degree expander; the SRW takes much longer for the same
	// fraction.
	g, err := gen.RandomRegularSW(newRand(8), 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := RunUntilVertexCover(walk.NewEProcess(g, newRand(9), nil, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	srw, err := RunUntilVertexCover(walk.NewSimple(g, newRand(9), 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	epCurve, err := ep.VertexCoverageCurve([]float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	srwCurve, err := srw.VertexCoverageCurve([]float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	if epCurve[0] >= srwCurve[0] {
		t.Errorf("E-process 90%% coverage (%d) not ahead of SRW (%d)", epCurve[0], srwCurve[0])
	}
}

func TestLazyStayRecorded(t *testing.T) {
	g, err := gen.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	p := walk.NewLazy(g, newRand(11), 0)
	r := Run(p, 100)
	if r.Steps != 100 {
		t.Errorf("steps = %d", r.Steps)
	}
	total := int64(0)
	for _, v := range r.Visits {
		total += v
	}
	if total != 101 { // start + 100 observations
		t.Errorf("total visits = %d, want 101", total)
	}
}
