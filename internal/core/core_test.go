package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/walk"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestBoundsBasicShapes(t *testing.T) {
	// Theorem 1 with ℓ = log n and constant gap is Θ(n).
	b1 := Theorem1Bound(1000, math.Log(1000), 0.5)
	if b1 < 1000 || b1 > 5000 {
		t.Errorf("Theorem1Bound(1000, ln n, .5) = %v out of Θ(n) range", b1)
	}
	// Degenerate inputs give +Inf.
	if !math.IsInf(Theorem1Bound(1000, 0, 0.5), 1) {
		t.Error("ℓ=0 should give Inf")
	}
	if !math.IsInf(Theorem3Bound(0, 0, 0, 0, 0), 1) {
		t.Error("degenerate Theorem3Bound should give Inf")
	}
	if !math.IsInf(GreedyWalkBound(1, 1, 0), 1) {
		t.Error("degenerate GreedyWalkBound should give Inf")
	}
	lo, hi := EdgeCoverSandwich(100, 345.5)
	if lo != 100 || hi != 445.5 {
		t.Errorf("sandwich = (%v,%v)", lo, hi)
	}
	if RadzikLowerBound(2) != 0 {
		t.Error("tiny n lower bound should be 0")
	}
	got := RadzikLowerBound(1000)
	want := 250 * math.Log(500)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Radzik(1000) = %v, want %v", got, want)
	}
	if FeigeLowerBound(1) != 0 {
		t.Error("Feige n=1 should be 0")
	}
	if SpeedupRatio(100, 0) != math.Inf(1) {
		t.Error("zero denominator should give Inf")
	}
	if SpeedupRatio(100, 50) != 2 {
		t.Error("speedup 100/50 should be 2")
	}
	if MixingTime(100, 0.5) != 6*math.Log(100)/0.5 {
		t.Error("mixing time formula wrong")
	}
	if HittingTimeBound(100, 4, 0.5) != 2*100/(4*0.5) {
		t.Error("hitting bound formula wrong")
	}
	if OddStarExpectation(800) != 100 {
		t.Error("n/8 expectation wrong")
	}
}

func TestUnvisitedSetProbBound(t *testing.T) {
	// Hypotheses violated: returns the vacuous bound 1.
	if UnvisitedSetProbBound(100, 200, 200, 0.5, 1e6) != 1 {
		t.Error("large d(S) should be vacuous")
	}
	if UnvisitedSetProbBound(100, 200, 4, 0.5, 1) != 1 {
		t.Error("small t should be vacuous")
	}
	// Valid regime: strictly between 0 and 1, decreasing in t.
	p1 := UnvisitedSetProbBound(10000, 20000, 8, 0.5, 1e5)
	p2 := UnvisitedSetProbBound(10000, 20000, 8, 0.5, 2e5)
	if p1 <= 0 || p1 >= 1 {
		t.Errorf("p1 = %v out of (0,1)", p1)
	}
	if p2 >= p1 {
		t.Errorf("bound not decreasing in t: %v -> %v", p1, p2)
	}
}

func TestCensusCycleGraph(t *testing.T) {
	g, err := gen.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := Census(g, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 1 {
		t.Fatalf("C8 census = %d cycles, want 1", len(cycles))
	}
	if cycles[0].Len() != 8 {
		t.Errorf("cycle length = %d", cycles[0].Len())
	}
	// Horizon below girth finds nothing.
	none, err := Census(g, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("census below girth found %d cycles", len(none))
	}
}

func TestCensusK4(t *testing.T) {
	g, err := gen.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := Census(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := CycleCounts(cycles, 4)
	if counts[3] != 4 {
		t.Errorf("K4 triangles = %d, want 4", counts[3])
	}
	if counts[4] != 3 {
		t.Errorf("K4 4-cycles = %d, want 3", counts[4])
	}
}

func TestCensusPetersen(t *testing.T) {
	petersen := graph.MustFromEdges(10, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
		{U: 5, V: 7}, {U: 7, V: 9}, {U: 9, V: 6}, {U: 6, V: 8}, {U: 8, V: 5},
		{U: 0, V: 5}, {U: 1, V: 6}, {U: 2, V: 7}, {U: 3, V: 8}, {U: 4, V: 9},
	})
	cycles, err := Census(petersen, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := CycleCounts(cycles, 6)
	// Petersen: 12 pentagons, 10 hexagons, nothing shorter.
	if counts[3] != 0 || counts[4] != 0 {
		t.Errorf("Petersen has no 3- or 4-cycles: %v", counts)
	}
	if counts[5] != 12 {
		t.Errorf("Petersen pentagons = %d, want 12", counts[5])
	}
	if counts[6] != 10 {
		t.Errorf("Petersen hexagons = %d, want 10", counts[6])
	}
}

func TestCensusMultigraph(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 0, V: 1}})
	cycles, err := Census(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := CycleCounts(cycles, 4)
	if counts[1] != 1 {
		t.Errorf("loops = %d, want 1", counts[1])
	}
	if counts[2] != 1 {
		t.Errorf("2-cycles = %d, want 1", counts[2])
	}
}

// Census emits the 2-cycles of several parallel sets in the order of
// each set's first edge ID, the same on every call (it once ranged over
// a map).
func TestCensusParallelPairsDeterministic(t *testing.T) {
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 4, V: 5}, {U: 0, V: 1}, {U: 5, V: 4}, {U: 2, V: 3},
		{U: 1, V: 0}, {U: 3, V: 2}, {U: 0, V: 1}, {U: 4, V: 5},
		{U: 1, V: 2}, {U: 5, V: 0}, {U: 3, V: 3},
	})
	first, err := Census(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var twos [][]int
	for _, c := range first {
		if c.Len() == 2 {
			twos = append(twos, c.Edges)
		}
	}
	want := [][]int{{0, 2}, {0, 7}, {2, 7}, {1, 4}, {1, 6}, {4, 6}, {3, 5}}
	if !slices.EqualFunc(twos, want, slices.Equal[[]int]) {
		t.Errorf("2-cycles %v, want %v", twos, want)
	}
	digest := censusDigest(first)
	for i := 0; i < 20; i++ {
		cycles, err := Census(g, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := censusDigest(cycles); got != digest {
			t.Fatalf("call %d: census differs from the first call", i)
		}
	}
}

func TestCensusCap(t *testing.T) {
	g, err := gen.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := Census(g, 8, 5)
	if err != ErrCensusCap {
		t.Fatalf("expected cap error, got %v with %d cycles", err, len(cycles))
	}
	if len(cycles) > 5 {
		t.Errorf("cap exceeded: %d", len(cycles))
	}
}

func TestExpectedCycleCount(t *testing.T) {
	if ExpectedCycleCount(4, 3) != 27.0/6 {
		t.Errorf("E N_3 for r=4 = %v, want 4.5", ExpectedCycleCount(4, 3))
	}
	if ExpectedCycleCount(4, 2) != 0 || ExpectedCycleCount(2, 5) != 0 {
		t.Error("degenerate parameters should give 0")
	}
}

func TestCyclesThroughVertex(t *testing.T) {
	g, err := gen.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := Census(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	through := CyclesThroughVertex(cycles, 0)
	// Vertex 0 of K4 lies on 3 triangles and all 3 four-cycles.
	if len(through) != 6 {
		t.Errorf("cycles through v0 = %d, want 6", len(through))
	}
}

func TestVertexDisjointShortCycles(t *testing.T) {
	// Two disjoint triangles: disjoint. K4's cycles: not.
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3},
	})
	cycles, err := Census(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !VertexDisjointShortCycles(cycles) {
		t.Error("disjoint triangles flagged as overlapping")
	}
	k4, err := gen.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	k4cycles, err := Census(k4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if VertexDisjointShortCycles(k4cycles) {
		t.Error("K4 cycles share vertices")
	}
}

func TestLGoodCycleGraph(t *testing.T) {
	// On C_n every vertex has degree 2; the only even subgraph
	// containing both its edges is the whole cycle: ℓ(v) = n.
	g, err := gen.Cycle(9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LGoodGraph(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Ell != 9 {
		t.Errorf("ℓ(C9) = %+v, want exact 9", res)
	}
	// Horizon below n: certified lower bound horizon+1.
	res, err = LGoodGraph(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact || res.Ell != 6 {
		t.Errorf("ℓ(C9) horizon 5 = %+v, want lower bound 6", res)
	}
}

func TestLGoodTwoTriangles(t *testing.T) {
	// Bowtie: two triangles sharing vertex 0. Vertex 0 has degree 4;
	// the minimal even subgraph containing all 4 of its edges is both
	// triangles: 5 vertices. Other vertices have degree 2 and ℓ = 3.
	bowtie := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 0, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
	})
	cycles, err := Census(bowtie, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0 := LGoodVertex(bowtie, 0, 5, cycles)
	if !r0.Exact || r0.Ell != 5 {
		t.Errorf("ℓ(v0) = %+v, want exact 5", r0)
	}
	r1 := LGoodVertex(bowtie, 1, 5, cycles)
	if !r1.Exact || r1.Ell != 3 {
		t.Errorf("ℓ(v1) = %+v, want exact 3", r1)
	}
	res, err := LGoodGraph(bowtie, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ell != 3 {
		t.Errorf("ℓ(bowtie) = %+v, want 3", res)
	}
}

// A vertex whose best in-horizon cover is larger than horizon+1 has
// only the lower bound horizon+1: a cover that uses one longer cycle
// can be smaller. Vertex 0 has edges a, b, c, d. Two edge-disjoint
// 9-cycles (through a, b and through c, d) give 17 vertices; the
// triangle on b, d plus the 11-cycle on a, c give 13.
func TestLGoodVertexLongCycleCoverIsNotExact(t *testing.T) {
	var edges []graph.Edge
	path := func(vs ...int) {
		for i := 0; i+1 < len(vs); i++ {
			edges = append(edges, graph.Edge{U: vs[i], V: vs[i+1]})
		}
	}
	path(0, 1, 2, 3, 4, 5, 6, 7, 8, 0)         // 9-cycle through a=0-1 and b=8-0
	path(0, 9, 10, 11, 12, 13, 14, 15, 16, 0)  // 9-cycle through c=0-9 and d=16-0
	path(8, 16)                                // triangle 0, 8, 16 on b and d
	path(1, 17, 18, 19, 20, 21, 22, 23, 24, 9) // 11-cycle on a and c
	g := graph.MustFromEdges(25, edges)
	for _, c := range []struct {
		horizon int
		want    LGoodResult
	}{
		{9, LGoodResult{Ell: 10, Exact: false}},
		{12, LGoodResult{Ell: 13, Exact: true}},
	} {
		cycles, err := Census(g, c.horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := LGoodVertex(g, 0, c.horizon, cycles); got != c.want {
			t.Errorf("horizon %d: ℓ(v0) = %+v, want %+v", c.horizon, got, c.want)
		}
	}
}

func TestLGoodOddDegreeVertex(t *testing.T) {
	k4, err := gen.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := Census(k4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := LGoodVertex(k4, 0, 4, cycles)
	if !r.Exact || r.Ell != math.MaxInt {
		t.Errorf("odd-degree vertex should have ℓ = ∞, got %+v", r)
	}
	if _, err := LGoodGraph(k4, 4); err == nil {
		t.Error("LGoodGraph on odd-degree graph should fail")
	}
}

func TestLGoodRandomRegularScalesWithLogN(t *testing.T) {
	// For random 4-regular graphs ℓ = Ω(log n) whp; check ℓ ≥ 4 on a
	// moderate instance (girth ≥ 3 gives ℓ ≥ 5 for two triangles
	// sharing a vertex... we only assert the certified bound is sane).
	g, err := gen.RandomRegularSW(newRand(5), 150, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LGoodGraph(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ell < 3 {
		t.Errorf("ℓ = %+v below girth floor", res)
	}
}

func TestP2HoldsBowtieViolation(t *testing.T) {
	// The bowtie's 5 vertices induce 6 edges: (P2) with slack 0 fails
	// at sMax = 5 but holds at sMax = 4.
	bowtie := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 0, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
	})
	cycles, err := Census(bowtie, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if P2Holds(bowtie, 5, cycles) {
		t.Error("bowtie violates (P2) at s=5")
	}
	if !P2Holds(bowtie, 4, cycles) {
		t.Error("bowtie satisfies (P2) at s=4")
	}
}

func TestP2LGoodBound(t *testing.T) {
	g, err := gen.RandomRegularSW(newRand(6), 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's (P2) horizon is ε·log n with ε = 1/(4·log re) ≈ 0.1,
	// so at n = 200 only small s hold; this seed satisfies s = 5 and,
	// like most instances at this size, violates s = 8 (two short
	// cycles within 8 vertices).
	ok, err := P2LGoodBound(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("(P2) failed at s=5 on seeded random 4-regular graph")
	}
	ok8, err := P2LGoodBound(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ok8 {
		t.Error("(P2) unexpectedly held at s=8; update the test's understanding of this seed")
	}
	c5, err := gen.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := P2LGoodBound(c5, 4); err == nil {
		t.Error("2-regular graph should be rejected")
	}
}

func TestVerifiedRunEvenDegree(t *testing.T) {
	for _, deg := range []int{4, 6} {
		g, err := gen.RandomRegularSW(newRand(7), 80, deg)
		if err != nil {
			t.Fatal(err)
		}
		e := walk.NewEProcess(g, newRand(8), nil, 0)
		ct, st, err := VerifiedRun(e, 0)
		if err != nil {
			t.Fatalf("deg %d: %v", deg, err)
		}
		if ct.Vertex <= 0 || ct.Edge < int64(g.M()) {
			t.Errorf("deg %d: cover times %+v implausible", deg, ct)
		}
		if st.BlueSteps != int64(g.M()) {
			t.Errorf("deg %d: blue steps %d != m %d at edge cover", deg, st.BlueSteps, g.M())
		}
	}
}

func TestVerifiedRunRejectsOddDegree(t *testing.T) {
	g, err := gen.RandomRegularSW(newRand(9), 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := walk.NewEProcess(g, newRand(10), nil, 0)
	if _, _, err := VerifiedRun(e, 0); err == nil {
		t.Fatal("odd-degree graph must be refused")
	}
}

func TestVerifiedRunAllRules(t *testing.T) {
	g, err := gen.RandomRegularSW(newRand(11), 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	rules := []walk.Rule{
		walk.Uniform{}, walk.LowestEdgeFirst{}, walk.HighestEdgeFirst{},
		&walk.RoundRobin{}, walk.TowardVisited{}, walk.TowardUnvisited{},
	}
	for _, rule := range rules {
		e := walk.NewEProcess(g, newRand(12), rule, 5)
		if _, _, err := VerifiedRun(e, 0); err != nil {
			t.Errorf("rule %s: %v", rule.Name(), err)
		}
	}
}

func TestAnalyzeBlueFreshProcess(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	e := walk.NewEProcess(g, newRand(13), nil, 0)
	an := AnalyzeBlue(e)
	if len(an.Components) != 1 {
		t.Fatalf("fresh cycle should be one blue component, got %d", len(an.Components))
	}
	if an.UnvisitedVertexCount != 6 {
		t.Errorf("unvisited vertices = %d, want 6", an.UnvisitedVertexCount)
	}
	if !an.EvenBlueDegrees {
		t.Error("fresh even graph must have even blue degrees")
	}
	if len(an.Components[0].Edges) != 6 || len(an.Components[0].Vertices) != 6 {
		t.Error("component should contain whole cycle")
	}
}

func TestAnalyzeBlueAfterCover(t *testing.T) {
	g, err := gen.RandomRegularSW(newRand(14), 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := walk.NewEProcess(g, newRand(15), nil, 0)
	if _, err := walk.EdgeCoverSteps(e, 0); err != nil {
		t.Fatal(err)
	}
	an := AnalyzeBlue(e)
	if len(an.Components) != 0 {
		t.Errorf("after edge cover there are no blue components, got %d", len(an.Components))
	}
	if an.UnvisitedVertexCount != 0 {
		t.Errorf("unvisited vertices after cover = %d", an.UnvisitedVertexCount)
	}
}

func TestMaximalBlueSubgraph(t *testing.T) {
	g, err := gen.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	e := walk.NewEProcess(g, newRand(16), nil, 0)
	edges, vertices, unvisited := MaximalBlueSubgraph(e, 2)
	if !unvisited {
		t.Error("fresh vertex should be unvisited")
	}
	if len(edges) != 5 || len(vertices) != 5 {
		t.Errorf("S*_v should be whole cycle, got %d edges %d vertices", len(edges), len(vertices))
	}
	// After full cover S*_v is empty.
	if _, err := walk.EdgeCoverSteps(e, 0); err != nil {
		t.Fatal(err)
	}
	edges, _, unvisited = MaximalBlueSubgraph(e, 2)
	if unvisited || len(edges) != 0 {
		t.Error("after cover S*_v must be empty and v visited")
	}
}

func TestStarCensusEvenDegreeZero(t *testing.T) {
	g, err := gen.RandomRegularSW(newRand(17), 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := walk.NewEProcess(g, newRand(18), nil, 0)
	st, err := StarCensusRun(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Peak != 0 || st.EverCenters != 0 {
		t.Errorf("even-degree graph produced stars: %+v", st)
	}
}

func TestStarCensusOddDegreePositive(t *testing.T) {
	// 3-regular: Section 5 predicts ≈ n/8 isolated stars. On n = 400
	// the population should be clearly positive for a typical seed.
	g, err := gen.RandomRegularSW(newRand(19), 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := walk.NewEProcess(g, newRand(20), nil, 0)
	st, err := StarCensusRun(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.EverCenters == 0 {
		t.Error("3-regular run produced no isolated stars at all")
	}
	// Sanity ceiling: cannot exceed n/4 (each star takes 4 vertices).
	if st.Peak > g.N()/4 {
		t.Errorf("peak %d exceeds n/4", st.Peak)
	}
}

func TestIsolatedStarCentersDirect(t *testing.T) {
	// Construct a K4 minus perfect matching... simpler: star S3 plus a
	// triangle glued far away; drive the E-process by hand.
	// Graph: center 0 with leaves 1,2,3; leaves pairwise joined to a
	// hub 4 so their other edges can be visited.
	g := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, // the star (edges 0-2)
		{U: 1, V: 4}, {U: 2, V: 4}, {U: 3, V: 4}, // spokes to hub
	})
	e := walk.NewEProcess(g, newRand(21), nil, 4)
	// Visit the three spokes without touching the star: walk 4->1->4->2->4->3
	// would traverse star edges if rule picks them... instead mark via
	// the process by stepping until spokes visited. Easier: direct check
	// that the fresh process has no isolated stars (leaves have blue
	// spokes), which exercises the negative path.
	centers := IsolatedStarCenters(e)
	if len(centers) != 0 {
		t.Errorf("fresh process has stars: %v", centers)
	}
}

func BenchmarkCensus(b *testing.B) {
	g, err := gen.RandomRegularSW(newRand(1), 500, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Census(g, 8, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLGoodGraph is the ℓ search at the size and horizon thm1
// analyses at scale 2 (n=1600, horizon ⌊ln n⌋+2 = 9), census included.
func BenchmarkLGoodGraph(b *testing.B) {
	g, err := gen.RandomRegularSW(newRand(1), 1600, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LGoodGraph(g, 9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeBlue(b *testing.B) {
	g, err := gen.RandomRegularSW(newRand(2), 300, 4)
	if err != nil {
		b.Fatal(err)
	}
	e := walk.NewEProcess(g, newRand(3), nil, 0)
	for i := 0; i < 300; i++ {
		e.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeBlue(e)
	}
}

func TestIsTreeLike(t *testing.T) {
	// On a cycle C9, radius 2 balls are paths (trees); radius 5 wraps
	// the whole cycle (not a tree).
	g, err := gen.Cycle(9)
	if err != nil {
		t.Fatal(err)
	}
	if !IsTreeLike(g, 0, 2) {
		t.Error("C9 radius-2 ball should be a path")
	}
	if IsTreeLike(g, 0, 5) {
		t.Error("C9 radius-5 ball contains the full cycle")
	}
	k4, err := gen.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	if IsTreeLike(k4, 0, 1) {
		t.Error("K4 radius-1 ball contains triangles")
	}
}

func TestTreeLikeFractionRandomRegular(t *testing.T) {
	// Random 3-regular graphs are overwhelmingly tree-like at radius 2
	// (the Section 5 hypothesis).
	g, err := gen.RandomRegularSW(newRand(23), 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if frac := TreeLikeFraction(g, 2); frac < 0.85 {
		t.Errorf("tree-like fraction %v too low for the §5 argument", frac)
	}
	// Sanity: the fraction is monotone non-increasing in radius.
	if TreeLikeFraction(g, 3) > TreeLikeFraction(g, 2)+1e-12 {
		t.Error("tree-likeness should shrink with radius")
	}
}
