package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro"
)

// The facade tests exercise the public API end to end, the way the
// testable examples and a downstream user would.

func apiRand(seed uint64) *rand.Rand {
	return rand.New(repro.NewSource(repro.KindXoshiro, seed))
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	r := apiRand(1)
	g, err := repro.RandomRegularSW(r, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := repro.NewEProcess(g, r, repro.Uniform{}, 0)
	steps, err := repro.VertexCoverSteps(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if steps < int64(g.N()-1) {
		t.Fatalf("cover in %d steps impossible", steps)
	}
	st := p.Stats()
	if st.BlueSteps > int64(g.M()) {
		t.Error("Observation 12 violated through the public API")
	}
}

func TestPublicAPIGreedyAlias(t *testing.T) {
	r := apiRand(2)
	g, err := repro.Cycle(50)
	if err != nil {
		t.Fatal(err)
	}
	grw := repro.NewGreedyRandomWalk(g, r, 0)
	steps, err := repro.EdgeCoverSteps(grw, 0)
	if err != nil {
		t.Fatal(err)
	}
	// On a fresh cycle the greedy walk is forced around: exactly m
	// blue steps, no red steps.
	if steps != int64(g.M()) {
		t.Errorf("GRW edge cover on C50 = %d, want exactly %d", steps, g.M())
	}
}

func TestPublicAPIVerifiedRun(t *testing.T) {
	r := apiRand(3)
	g, err := repro.RandomRegularSW(r, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := repro.NewEProcess(g, r, repro.TowardVisited{}, 0)
	ct, st, err := repro.VerifiedRun(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Vertex <= 0 || ct.Edge <= 0 || st.BluePhases == 0 {
		t.Error("verified run returned implausible stats")
	}
}

func TestPublicAPIBounds(t *testing.T) {
	if repro.RadzikLowerBound(1000) <= 0 {
		t.Error("Radzik bound")
	}
	if repro.Theorem1Bound(1000, 10, 0.3) <= 1000 {
		t.Error("Theorem 1 bound must exceed n")
	}
	lo, hi := repro.EdgeCoverSandwich(500, 2000)
	if lo != 500 || hi != 2500 {
		t.Error("sandwich values")
	}
	if repro.MixingTime(100, 0.5) <= 0 {
		t.Error("mixing time")
	}
	if repro.HittingTimeBound(1000, 4, 0.5) <= 0 {
		t.Error("hitting bound")
	}
	if repro.FeigeLowerBound(100) <= 0 {
		t.Error("Feige bound")
	}
	if repro.GreedyWalkBound(100, 200, 0.5) <= 200 {
		t.Error("GRW bound must exceed m")
	}
	if repro.Theorem3Bound(100, 200, 4, 4, 0.5) <= 200 {
		t.Error("Theorem 3 bound must exceed m")
	}
}

func TestPublicAPISpectral(t *testing.T) {
	g, err := repro.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := repro.ComputeGap(g, repro.SpectralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lazy := repro.LazyGap(gap)
	if math.Abs(lazy.Value-0.25) > 1e-5 {
		t.Errorf("lazy gap of H4 = %v, want 0.25", lazy.Value)
	}
	pi := repro.Stationary(g)
	if math.Abs(pi[0]-1.0/16) > 1e-12 {
		t.Error("uniform stationary distribution expected on a regular graph")
	}
	rho := make([]float64, g.N())
	rho[0] = 1
	out, err := repro.EvolveDistribution(g, rho, 200, true)
	if err != nil {
		t.Fatal(err)
	}
	if repro.TVDistance(out, pi) > 1e-6 {
		t.Error("lazy evolution did not converge")
	}
	tm, err := repro.EmpiricalMixingTime(g, 0, 1e-3, 10000)
	if err != nil || tm <= 0 {
		t.Errorf("mixing time = %d, %v", tm, err)
	}
}

func TestPublicAPIAnalysis(t *testing.T) {
	r := apiRand(4)
	g, err := repro.RandomRegularSW(r, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := repro.LGoodGraph(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Ell < 3 {
		t.Error("ℓ below girth floor")
	}
	cycles, err := repro.CycleCensus(g, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = repro.P2Holds(g, 4, cycles)

	e := repro.NewEProcess(g, r, nil, 0)
	for i := 0; i < 50; i++ {
		e.Step()
	}
	an := repro.AnalyzeBlue(e)
	if an.UnvisitedVertexCount <= 0 {
		t.Error("50 steps cannot visit 200 vertices")
	}
	edges, verts, unvisited := repro.MaximalBlueSubgraph(e, e.Current())
	_ = edges
	_ = verts
	_ = unvisited
}

func TestPublicAPIProcessZoo(t *testing.T) {
	r := apiRand(5)
	g, err := repro.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	procs := []repro.Process{
		repro.NewSimple(g, r, 0),
		repro.NewLazy(g, r, 0),
		repro.NewEProcess(g, r, &repro.RoundRobin{}, 0),
		repro.NewVProcess(g, r, 0),
		repro.NewChoice(g, r, 2, 0),
		repro.NewRotor(g, r, 0),
		repro.NewLeastUsedFirst(g, r, 0),
		repro.NewOldestFirst(g, r, 0),
	}
	for i, p := range procs {
		ct, err := repro.CoverBoth(p, 0)
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
		if ct.Vertex <= 0 || ct.Edge < ct.Vertex {
			t.Errorf("process %d: implausible cover times %+v", i, ct)
		}
	}
	weights := make([]float64, g.M())
	for i := range weights {
		weights[i] = 1 + float64(i%3)
	}
	w, err := repro.NewWeighted(g, r, weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.VertexCoverSteps(w, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIStarCensus(t *testing.T) {
	r := apiRand(6)
	g, err := repro.RandomRegularSW(r, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := repro.NewEProcess(g, r, nil, 0)
	st, err := repro.StarCensusRun(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cover.Edge <= 0 {
		t.Error("no edge cover recorded")
	}
	_ = repro.IsolatedStarCenters(e)
}

func TestPublicAPIGraphOps(t *testing.T) {
	g, err := repro.NewGraphFromEdges(4, []repro.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Girth() != 4 {
		t.Error("girth")
	}
	trail, err := g.EulerCircuit(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyCircuit(0, trail); err != nil {
		t.Fatal(err)
	}
	gamma, gid, _ := g.Contract([]int{0, 1})
	if gamma.Degree(gid) != 4 {
		t.Error("contraction degree")
	}
	if _, err := repro.NewGraphFromEdges(3, []repro.Edge{{U: 0, V: 5}}); err == nil {
		t.Error("out-of-range edge should fail")
	}
}

func TestPublicAPIHittingEstimates(t *testing.T) {
	r := apiRand(7)
	g, err := repro.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	// K8: E_u T_u+ = 2m/d = 2·28/7 = 8.
	ret, err := repro.EstimateReturnTime(g, r, 0, 8000, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ret-8) > 0.6 {
		t.Errorf("return time on K8 = %v, want ≈8", ret)
	}
	if _, err := repro.EstimateHittingTime(g, r, 0, 3, 500, 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.EstimateCommuteTime(g, r, 0, 3, 500, 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.BlanketTime(g, r, 0, 0.2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.VisitAllAtLeast(g, r, 0, 2, 0); err != nil {
		t.Fatal(err)
	}
}

// The experiment harness is part of the facade: the registry is
// enumerable, and a named experiment runs under a context with
// cancellation honoured.
func TestPublicAPIExperimentRegistry(t *testing.T) {
	exps := repro.Experiments()
	if len(exps) < 20 {
		t.Fatalf("repro.Experiments() = %d entries, want the full registry", len(exps))
	}
	if _, ok := repro.LookupExperiment("thm1"); !ok {
		t.Fatal("thm1 not visible through the facade")
	}
	res, err := repro.RunExperiment(context.Background(), "eq3", repro.ExpConfig{Seed: 3, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "eq3" || res.Table == nil || len(res.Table.Rows) == 0 {
		t.Fatalf("malformed result: %+v", res)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name": "eq3"`)) {
		t.Error("JSON encoding lacks the experiment stamp")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repro.RunExperiment(ctx, "eq3", repro.ExpConfig{Seed: 3, Trials: 1}); err != context.Canceled {
		t.Errorf("cancelled RunExperiment = %v, want context.Canceled", err)
	}
}

// The durable-run layer is part of the facade: an experiment runs with
// a checkpoint journal, RunShard splits its unit space, and MergeShards
// stitches the shard journals into a result identical to a plain run.
func TestPublicAPIDurableRuns(t *testing.T) {
	e, ok := repro.LookupExperiment("eq3")
	if !ok {
		t.Fatal("eq3 not visible through the facade")
	}
	cfg := repro.ExpConfig{Seed: 4, Trials: 1}
	clean, err := e.Run(context.Background(), cfg, repro.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	for i, dir := range dirs {
		if err := e.RunShard(context.Background(), cfg, repro.Shard{Index: i, Count: 2},
			repro.RunOptions{Checkpoint: &repro.Checkpoint{Dir: dir}}); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	merged, err := repro.MergeShards(context.Background(), e, cfg, dirs, repro.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := clean.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("merged shard result differs from a plain run through the facade")
	}
}

// RunKey is the facade's canonical run identity: equal configurations
// share a key, Workers never enters it, and any determinism-relevant
// knob changes it.
func TestPublicAPIRunKey(t *testing.T) {
	e, ok := repro.LookupExperiment("eq3")
	if !ok {
		t.Fatal("eq3 not visible through the facade")
	}
	key := func(cfg repro.ExpConfig) string {
		t.Helper()
		k, err := e.RunKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return k.Encode()
	}
	base := repro.ExpConfig{Seed: 7, Trials: 2}
	if key(base) != key(repro.ExpConfig{Seed: 7, Trials: 2, Workers: 8}) {
		t.Error("Workers entered the run key; parallelism must not split the cache")
	}
	if key(base) == key(repro.ExpConfig{Seed: 8, Trials: 2}) {
		t.Error("distinct seeds share a run key")
	}
	var k repro.RunKey
	if err := json.Unmarshal([]byte(key(base)), &k); err != nil {
		t.Fatalf("run key is not a JSON document: %v", err)
	}
	if k.Name != "eq3" || k.Seed != 7 || k.Trials != 2 {
		t.Errorf("decoded run key = %+v, want eq3 seed 7 trials 2", k)
	}
	// The strict decoder round-trips the canonical encoding and rejects
	// what Encode could not have produced.
	dk, err := repro.DecodeRunKey([]byte(key(base)))
	if err != nil {
		t.Fatalf("DecodeRunKey rejected a canonical key: %v", err)
	}
	if dk.Encode() != key(base) {
		t.Error("DecodeRunKey round-trip drifted")
	}
	if _, err := repro.DecodeRunKey([]byte(key(base) + "junk")); err == nil {
		t.Error("DecodeRunKey accepted trailing bytes")
	}
}
