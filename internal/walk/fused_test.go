package walk

import (
	"fmt"
	"math"
	mbits "math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// randomMultigraph returns a connected multigraph on n vertices: a
// random spanning tree plus extra random edges, among them loops and
// parallel copies of existing edges.
func randomMultigraph(t testing.TB, r *rand.Rand, n, extra int) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	add := func(u, v int) { edges = append(edges, graph.Edge{U: u, V: v}) }
	for v := 1; v < n; v++ {
		add(r.Intn(v), v)
	}
	for i := 0; i < extra; i++ {
		u := r.Intn(n)
		switch r.Intn(4) {
		case 0:
			add(u, u)
		case 1:
			if len(edges) > 0 {
				e := edges[r.Intn(len(edges))]
				add(e.U, e.V)
				continue
			}
			add(u, u)
		default:
			add(u, r.Intn(n))
		}
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fusedShapes is the graph pool of the fused-loop property tests: the
// trivial graph, tiny and mid-sized random multigraphs (loops and
// parallel edges included), a random 4-regular graph and the golden
// double cycle.
func fusedShapes(t *testing.T) []*graph.Graph {
	r := newRand(5)
	out := []*graph.Graph{graph.MustFromEdges(1, nil)}
	for _, sh := range []struct{ n, extra int }{
		{1, 3}, {2, 0}, {2, 4}, {3, 5}, {5, 10}, {17, 8}, {40, 80}, {120, 60},
	} {
		out = append(out, randomMultigraph(t, r, sh.n, sh.extra))
	}
	out = append(out, mustRegular(t, newRand(6), 90, 4))
	dc, err := gen.DoubleCycle(24)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, dc)
}

// fusedSources builds twin generators in identical states: one drives
// the fused loop, the other per-Step driving. The fused loop
// devirtualizes the two xoshiro256** shapes and calls Intn on the rest.
var fusedSources = []struct {
	name string
	make func(seed uint64) Intner
}{
	{"math-rand", func(s uint64) Intner { return rand.New(rand.NewSource(int64(s))) }},
	{"xoshiro", func(s uint64) Intner { return rng.NewXoshiro256(s) }},
	{"rng-rand-xoshiro", func(s uint64) Intner { return rng.NewRand(rng.NewXoshiro256(s)) }},
	{"rng-rand-mt", func(s uint64) Intner { return rng.NewRand(rng.NewMT19937(uint32(s))) }},
}

// recorder wraps a Process so the cover drivers cannot see the
// concrete type, logging every transition.
type recorder struct {
	Process
	log []step
}

func (r *recorder) Step() (int, int) {
	e, v := r.Process.Step()
	r.log = append(r.log, step{e, v})
	return e, v
}

// checkSameState compares everything a caller can observe of the two
// processes, plus the pending arrangement itself.
func checkSameState(t *testing.T, name string, got, want *EProcess) {
	t.Helper()
	if got.Current() != want.Current() || got.Stats() != want.Stats() || got.Phase() != want.Phase() {
		t.Fatalf("%s: fused left (cur %d, %+v, %v), per-Step (cur %d, %+v, %v)", name,
			got.Current(), got.Stats(), got.Phase(), want.Current(), want.Stats(), want.Phase())
	}
	g := got.Graph()
	for id := 0; id < g.M(); id++ {
		if got.EdgeVisited(id) != want.EdgeVisited(id) {
			t.Fatalf("%s: EdgeVisited(%d) = %v, per-Step %v", name, id, got.EdgeVisited(id), want.EdgeVisited(id))
		}
	}
	if a, b := got.UnvisitedEdgeIDs(), want.UnvisitedEdgeIDs(); !slices.Equal(a, b) {
		t.Fatalf("%s: UnvisitedEdgeIDs %v, per-Step %v", name, a, b)
	}
	for v := 0; v < g.N(); v++ {
		if got.BlueDegree(v) != want.BlueDegree(v) {
			t.Fatalf("%s: BlueDegree(%d) = %d, per-Step %d", name, v, got.BlueDegree(v), want.BlueDegree(v))
		}
	}
	if !slices.Equal(got.pend.halves, want.pend.halves) || !slices.Equal(got.pend.end, want.pend.end) {
		t.Fatalf("%s: pending arrangement differs from per-Step driving", name)
	}
}

// TestFusedCoverMatchesStepDriving pits the fused cover loop against
// per-Step driving of the same process through uniformViaInterface,
// which the drivers cannot fuse. Over every shape, source, driver and
// budget (default, and budgets that censor) the trajectories, cover
// times, step counts, error texts and post-run state must be identical.
// One CoverScratch serves every fused run, and each process runs twice
// with a Reset in between; after each run both processes take further
// Steps, which must agree too (the fused loop wrote its generator state
// back).
func TestFusedCoverMatchesStepDriving(t *testing.T) {
	var sc CoverScratch
	for gi, g := range fusedShapes(t) {
		for _, src := range fusedSources {
			for _, edges := range []bool{true, false} {
				for _, budget := range []int64{0, 1, int64(g.M() / 2), int64(g.N() + g.M())} {
					seed := uint64(1000*gi) + uint64(budget)
					start := int(seed) % g.N()
					fused := NewEProcess(g, src.make(seed), nil, start)
					stepped := NewEProcess(g, src.make(seed), uniformViaInterface{}, start)
					ref := &recorder{Process: stepped}
					for run := 0; run < 2; run++ {
						name := fmt.Sprintf("graph%d/%s/edges=%v/budget=%d/run%d", gi, src.name, edges, budget, run)
						var traj []step
						sc.trace = func(e, v int) { traj = append(traj, step{e, v}) }
						ref.log = ref.log[:0]
						var refSC CoverScratch
						var got, want any
						var gotErr, wantErr error
						if edges {
							got, gotErr = sc.Cover(fused, budget)
							want, wantErr = refSC.Cover(ref, budget)
						} else {
							got, gotErr = sc.VertexCoverSteps(fused, budget)
							want, wantErr = refSC.VertexCoverSteps(ref, budget)
						}
						sc.trace = nil
						if got != want {
							t.Fatalf("%s: fused %+v, per-Step %+v", name, got, want)
						}
						if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
							t.Fatalf("%s: fused error %v, per-Step error %v", name, gotErr, wantErr)
						}
						if int64(len(traj)) != fused.Stats().Total() || !slices.Equal(traj, ref.log) {
							t.Fatalf("%s: fused trajectory (%d steps) differs from per-Step (%d steps)", name, len(traj), len(ref.log))
						}
						checkSameState(t, name, fused, stepped)
						if g.M() > 0 {
							for i := 0; i < 20; i++ {
								a1, b1 := fused.Step()
								a2, b2 := stepped.Step()
								if a1 != a2 || b1 != b2 {
									t.Fatalf("%s: step %d after the run: fused (%d,%d), per-Step (%d,%d)", name, i, a1, b1, a2, b2)
								}
							}
						}
						fused.Reset(start)
						stepped.Reset(start)
					}
				}
			}
		}
	}
}

// TestFusedCoverOnlyForFreshUniform: an E-process that has already
// stepped, records phases or follows another rule, a lazy simple walk,
// and a simple walk or RWC(d) on a source that is not an xoshiro256**,
// are driven per Step, so their cover drivers' results are the per-Step
// ones (the trace hook, which only the fused loops call, stays silent).
func TestFusedCoverOnlyForFreshUniform(t *testing.T) {
	g := mustRegular(t, newRand(8), 60, 4)
	stepped := NewEProcess(g, rng.NewXoshiro256(1), nil, 0)
	stepped.Step()
	phases := NewEProcess(g, rng.NewXoshiro256(1), nil, 0)
	phases.RecordPhases(true)
	procs := map[string]Process{
		"stepped":      stepped,
		"phases":       phases,
		"round-robin":  NewEProcess(g, rng.NewXoshiro256(1), &RoundRobin{}, 0),
		"generic-rule": NewEProcess(g, rng.NewXoshiro256(1), uniformViaInterface{}, 0),
		"lazy-simple":  NewLazy(g, rng.NewXoshiro256(1), 0),
	}
	for _, src := range fusedSources {
		if xoshiroState(src.make(1)) != nil {
			continue
		}
		for _, proc := range choiceTwins {
			procs[src.name+"/"+proc.name] = proc.make(g, src.make(1), 0)
		}
	}
	for name, e := range procs {
		var sc CoverScratch
		sc.trace = func(int, int) { t.Fatalf("%s: took the fused loop", name) }
		if _, err := sc.Cover(e, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := sc.VertexCoverSteps(e, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestPendingBlocksExact pins the engine's invariant directly: after
// every Step, under every shipped Rule, each vertex's pending block is
// exactly the multiset of its unvisited incident halves (a loop
// contributes both of its halves), so BlueDegree is the block's length.
func TestPendingBlocksExact(t *testing.T) {
	rules := map[string]func() Rule{
		"uniform":            func() Rule { return Uniform{} },
		"round-robin":        func() Rule { return &RoundRobin{} },
		"lowest-edge-first":  func() Rule { return LowestEdgeFirst{} },
		"highest-edge-first": func() Rule { return HighestEdgeFirst{} },
		"toward-visited":     func() Rule { return TowardVisited{} },
		"toward-unvisited":   func() Rule { return TowardUnvisited{} },
	}
	less := func(a, b graph.Half) int {
		if a.ID != b.ID {
			return int(a.ID) - int(b.ID)
		}
		return int(a.To) - int(b.To)
	}
	r := newRand(11)
	graphs := []*graph.Graph{
		randomMultigraph(t, r, 1, 3),
		randomMultigraph(t, r, 4, 8),
		randomMultigraph(t, r, 12, 20),
		randomMultigraph(t, r, 30, 45),
	}
	for name, rule := range rules {
		for gi, g := range graphs {
			e := NewEProcess(g, rng.NewXoshiro256(uint64(gi)), rule(), 0)
			for s := 0; s < 3*g.M()+10; s++ {
				e.Step()
				for v := 0; v < g.N(); v++ {
					var want []graph.Half
					for _, h := range g.Adj(v) {
						if !e.EdgeVisited(int(h.ID)) {
							want = append(want, h)
						}
					}
					got := slices.Clone(e.pend.pending(v))
					slices.SortFunc(got, less)
					slices.SortFunc(want, less)
					if !slices.Equal(got, want) {
						t.Fatalf("%s graph%d step %d: vertex %d pending %v, unvisited halves %v", name, gi, s, v, got, want)
					}
					if e.BlueDegree(v) != len(want) {
						t.Fatalf("%s graph%d step %d: BlueDegree(%d) = %d, want %d", name, gi, s, v, e.BlueDegree(v), len(want))
					}
				}
			}
		}
	}
}

// coverOutcome is what a cover driver reports for one walk.
type coverOutcome struct {
	times CoverTimes
	steps int64
	err   error
}

// coverBoth runs one xoshiro-seeded walk of g from start through sc's
// fused loop and, on an identically seeded twin, through per-Step
// driving, and fails unless the fused loop was taken and both report
// the same cover times, step count and error text and leave the same
// state. It returns the fused outcome.
func coverBoth(t *testing.T, name string, sc *CoverScratch, g *graph.Graph, seed uint64, start int, maxSteps int64, edges bool) coverOutcome {
	t.Helper()
	fused := NewEProcess(g, rng.NewXoshiro256(seed), nil, start)
	stepped := NewEProcess(g, rng.NewXoshiro256(seed), uniformViaInterface{}, start)
	if !fused.fusable() {
		t.Fatalf("%s: a fresh Uniform process is not fusable", name)
	}
	run := func(sc *CoverScratch, p Process, e *EProcess) coverOutcome {
		var out coverOutcome
		if edges {
			out.times, out.err = sc.Cover(p, maxSteps)
		} else {
			out.times.Vertex, out.err = sc.VertexCoverSteps(p, maxSteps)
		}
		out.steps = e.Stats().Total()
		return out
	}
	got := run(sc, fused, fused)
	want := run(&CoverScratch{}, &recorder{Process: stepped}, stepped)
	if got.times != want.times || got.steps != want.steps {
		t.Errorf("%s: fused (steps %d, times %+v), per-Step (steps %d, times %+v)",
			name, got.steps, got.times, want.steps, want.times)
	}
	if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
		t.Errorf("%s: fused error %v, per-Step error %v", name, got.err, want.err)
	}
	checkSameState(t, name, fused, stepped)
	return got
}

// coverWalkCounts are the numbers of walks the multi-walk scenarios
// below run back to back through one CoverScratch: one, a few, the
// sweep's trial count, and many.
var coverWalkCounts = []int{1, 3, 8, 64}

// TestFusedCoverPerWalkGraphs is the sweep-runner shape:
// each walk carries its own graph (different sizes, degrees and
// families) and its own seed, all through one CoverScratch, and each
// fused outcome must equal per-Step driving on the same (graph, seed,
// budget): full and censored runs, Cover and VertexCoverSteps.
func TestFusedCoverPerWalkGraphs(t *testing.T) {
	var pool []*graph.Graph
	for i, shape := range []struct{ n, d int }{
		{40, 4}, {61, 4}, {50, 3}, {96, 6}, {33, 4},
	} {
		pool = append(pool, mustRegular(t, newRand(int64(100+i)), shape.n, shape.d))
	}
	dc, err := gen.DoubleCycle(24)
	if err != nil {
		t.Fatal(err)
	}
	pool = append(pool, dc)
	var sc CoverScratch
	for _, w := range coverWalkCounts {
		for _, edges := range []bool{true, false} {
			for _, maxSteps := range []int64{0, 40} {
				for i := 0; i < w; i++ {
					g := pool[i%len(pool)]
					name := fmt.Sprintf("edges=%v/w%d/walk%d/max%d", edges, w, i, maxSteps)
					coverBoth(t, name, &sc, g, uint64(1000*w+i), i%g.N(), maxSteps, edges)
				}
			}
		}
	}
}

// TestFusedCoverSharedGraph is the many-walks-on-one-graph
// shape: every walk shares one frozen graph, distinguished only by seed
// and start. One CoverScratch serves every run, and a second
// identically seeded pass must reproduce the first exactly.
func TestFusedCoverSharedGraph(t *testing.T) {
	g := mustRegular(t, newRand(7), 120, 4)
	var sc CoverScratch
	for _, w := range coverWalkCounts {
		var first []coverOutcome
		for i := 0; i < w; i++ {
			name := fmt.Sprintf("shared/w%d/walk%d", w, i)
			first = append(first, coverBoth(t, name, &sc, g, uint64(77*w+i), (i*13)%g.N(), 0, true))
		}
		for i := 0; i < w; i++ {
			name := fmt.Sprintf("shared-again/w%d/walk%d", w, i)
			again := coverBoth(t, name, &sc, g, uint64(77*w+i), (i*13)%g.N(), 0, true)
			if again.steps != first[i].steps || again.times != first[i].times {
				t.Errorf("%s: reused CoverScratch diverged: %+v vs %+v", name, first[i], again)
			}
		}
	}
}

// TestFusedCoverShapeChurn re-runs one CoverScratch across walks whose graph
// sizes grow and shrink, so its reused vertex set cannot leak state
// between shapes.
func TestFusedCoverShapeChurn(t *testing.T) {
	small := mustRegular(t, newRand(31), 36, 4)
	big := mustRegular(t, newRand(32), 200, 4)
	var sc CoverScratch
	for run, shape := range [][]*graph.Graph{
		{big, big, big}, {small}, {big, small, big, small, big}, {small, small},
	} {
		for i, g := range shape {
			for _, edges := range []bool{true, false} {
				name := fmt.Sprintf("churn/run%d/walk%d/edges=%v", run, i, edges)
				coverBoth(t, name, &sc, g, uint64(900+10*run+i), 0, 0, edges)
			}
		}
	}
}

// TestFusedCoverTrivialGraph: a walk whose graph is already covered at step
// 0 (one vertex, no edges) must finish with zero steps and no error,
// like per-Step driving, and the CoverScratch must serve a normal walk
// correctly afterwards.
func TestFusedCoverTrivialGraph(t *testing.T) {
	normal := mustRegular(t, newRand(41), 30, 4)
	var sc CoverScratch
	for _, edges := range []bool{true, false} {
		out := coverBoth(t, fmt.Sprintf("trivial/edges=%v", edges), &sc, graph.MustFromEdges(1, nil), 1, 0, 0, edges)
		if out.err != nil || out.steps != 0 || out.times != (CoverTimes{}) {
			t.Errorf("trivial walk (edges=%v): %+v, want zero steps and nil error", edges, out)
		}
		coverBoth(t, fmt.Sprintf("after-trivial/edges=%v", edges), &sc, normal, 2, 0, 0, edges)
	}
}

// choiceTwins are the processes coverChoice runs, each built twice on
// twin generators: the non-lazy simple walk (RWC(1) without visit
// counts) and RWC(d) for d = 1, 2 and 3.
var choiceTwins = []struct {
	name string
	make func(g *graph.Graph, r Intner, start int) Process
}{
	{"simple", func(g *graph.Graph, r Intner, s int) Process { return NewSimple(g, r, s) }},
	{"rwc1", func(g *graph.Graph, r Intner, s int) Process { return NewChoice(g, r, 1, s) }},
	{"rwc2", func(g *graph.Graph, r Intner, s int) Process { return NewChoice(g, r, 2, s) }},
	{"rwc3", func(g *graph.Graph, r Intner, s int) Process { return NewChoice(g, r, 3, s) }},
}

// TestChoiceCoverMatchesStepDriving pits coverChoice against per-Step
// driving of an identically seeded twin behind recorder, which the
// drivers cannot fuse. Over every shape, source, process, driver and
// budget (default, and budgets that censor) the cover times, step
// counts, error texts and trajectories must be identical, and so must
// Current and every visit count afterwards. One CoverScratch serves
// every fused run, and each process runs twice with a Reset in between;
// after each run both twins take further Steps, which must agree too
// (the loop wrote its generator state back). Only the xoshiro256**
// sources reach the loop; TestFusedCoverOnlyForFreshUniform pins that
// the others do not.
func TestChoiceCoverMatchesStepDriving(t *testing.T) {
	var sc CoverScratch
	for gi, g := range fusedShapes(t) {
		for _, src := range fusedSources {
			if xoshiroState(src.make(0)) == nil {
				continue
			}
			for _, proc := range choiceTwins {
				for _, edges := range []bool{true, false} {
					for _, budget := range []int64{0, 1, int64(g.M() / 2), int64(g.N() + g.M())} {
						seed := uint64(1000*gi) + uint64(budget)
						start := int(seed) % g.N()
						fused := proc.make(g, src.make(seed), start)
						stepped := proc.make(g, src.make(seed), start)
						ref := &recorder{Process: stepped}
						for run := 0; run < 2; run++ {
							name := fmt.Sprintf("graph%d/%s/%s/edges=%v/budget=%d/run%d", gi, src.name, proc.name, edges, budget, run)
							var traj []step
							sc.trace = func(e, v int) { traj = append(traj, step{e, v}) }
							ref.log = ref.log[:0]
							var refSC CoverScratch
							var got, want any
							var gotErr, wantErr error
							if edges {
								got, gotErr = sc.Cover(fused, budget)
								want, wantErr = refSC.Cover(ref, budget)
							} else {
								got, gotErr = sc.VertexCoverSteps(fused, budget)
								want, wantErr = refSC.VertexCoverSteps(ref, budget)
							}
							sc.trace = nil
							if got != want {
								t.Fatalf("%s: fused %+v, per-Step %+v", name, got, want)
							}
							if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
								t.Fatalf("%s: fused error %v, per-Step error %v", name, gotErr, wantErr)
							}
							if !slices.Equal(traj, ref.log) {
								t.Fatalf("%s: fused trajectory (%d steps) differs from per-Step (%d steps)", name, len(traj), len(ref.log))
							}
							checkSameVisits(t, name, fused, stepped)
							if g.M() > 0 {
								for i := 0; i < 20; i++ {
									a1, b1 := fused.Step()
									a2, b2 := stepped.Step()
									if a1 != a2 || b1 != b2 {
										t.Fatalf("%s: step %d after the run: fused (%d,%d), per-Step (%d,%d)", name, i, a1, b1, a2, b2)
									}
								}
								checkSameVisits(t, name+"/after", fused, stepped)
							}
							fused.Reset(start)
							stepped.Reset(start)
						}
					}
				}
			}
		}
	}
}

// checkSameVisits compares Current and, for a *Choice, every visit
// count of the two twins.
func checkSameVisits(t *testing.T, name string, got, want Process) {
	t.Helper()
	if got.Current() != want.Current() {
		t.Fatalf("%s: fused left the walk at %d, per-Step at %d", name, got.Current(), want.Current())
	}
	c, ok := got.(*Choice)
	if !ok {
		return
	}
	for v := 0; v < c.g.N(); v++ {
		if a, b := c.Visits(v), want.(*Choice).Visits(v); a != b {
			t.Fatalf("%s: Visits(%d) = %d, per-Step %d", name, v, a, b)
		}
	}
}

// TestFusedCoverIsolatedPanics: a walk on an isolated vertex panics
// under either cover driver with the value its own Step panics with,
// for every source kind and both fused loops: the Uniform E-process
// (coverFused on every source) and the choice walks (coverChoice on the
// xoshiro256** ones). The loops raise rng's own message only where they
// draw from hoisted xoshiro256** words; any other source panics in its
// own Intn, as Step does.
func TestFusedCoverIsolatedPanics(t *testing.T) {
	g := graph.MustFromEdges(2, nil)
	catch := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	procs := append([]struct {
		name string
		make func(g *graph.Graph, r Intner, start int) Process
	}{
		{"eprocess", func(g *graph.Graph, r Intner, s int) Process { return NewEProcess(g, r, nil, s) }},
	}, choiceTwins...)
	for _, src := range fusedSources {
		for _, proc := range procs {
			name := src.name + "/" + proc.name
			want := catch(func() { proc.make(g, src.make(1), 0).Step() })
			if want == nil {
				t.Fatalf("%s: Step on an isolated vertex did not panic", name)
			}
			var sc CoverScratch
			if got := catch(func() { sc.Cover(proc.make(g, src.make(1), 0), 0) }); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: Cover panicked with %v, Step with %v", name, got, want)
			}
			if got := catch(func() { sc.VertexCoverSteps(proc.make(g, src.make(1), 0), 0) }); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: VertexCoverSteps panicked with %v, Step with %v", name, got, want)
			}
		}
	}
}

// TestFusedDrawMatchesUint64n drives the fused loops' bounded draw
// (xoshiroNext, one multiply, lemireFringe on a low-fringe product) on
// the words an rng.Xoshiro256 hands out through State, against Uint64n
// on an identically seeded twin, draw for draw, and checks the words
// written back continue the twin's stream. Bounds just above 2⁶³ send
// about half of all draws into the fringe and make half of those draw
// again; simulation-sized bounds reach it with probability n/2⁶⁴.
func TestFusedDrawMatchesUint64n(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 7, 1000, 1<<32 + 1, 1<<63 - 1, 1 << 63, 1<<63 + 1, 1<<63 + 12345, math.MaxUint64} {
		ref := rng.NewXoshiro256(42)
		x := rng.NewXoshiro256(42)
		st := x.State()
		s0, s1, s2, s3 := st[0], st[1], st[2], st[3]
		redraws := 0
		for i := 0; i < 2000; i++ {
			var res uint64
			res, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			hi, lo := mbits.Mul64(res, n)
			if lo < n {
				if lo < -n%n {
					redraws++
				}
				hi, s0, s1, s2, s3 = lemireFringe(n, hi, lo, s0, s1, s2, s3)
			}
			if want := ref.Uint64n(n); hi != want {
				t.Fatalf("bound %d, draw %d: fused draw gives %d, Uint64n gives %d", n, i, hi, want)
			}
		}
		if n > 1<<63 && n < 1<<63+1<<32 && redraws == 0 {
			t.Errorf("bound %d: no draw was rejected in the fringe", n)
		}
		st[0], st[1], st[2], st[3] = s0, s1, s2, s3
		if got, want := x.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("bound %d, after write-back: Uint64 gives %#x, want %#x", n, got, want)
		}
	}
}
