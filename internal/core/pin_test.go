package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/walk"
)

// The online analyses' outputs are pinned exactly: the values below
// were recorded from the hand-written per-Step loops that VerifiedRun,
// StarCensusRun, the trace recorders and EProcess's own phase-length
// recording ran before they moved onto walk's cover loop.

func TestVerifiedRunPinned(t *testing.T) {
	g, err := gen.RandomRegularSW(newRand(31), 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		rule     walk.Rule
		maxSteps int64
		ct       walk.CoverTimes
		st       walk.Stats
		budget   bool
	}{
		{"uniform", walk.Uniform{}, 0, walk.CoverTimes{Vertex: 214, Edge: 357}, walk.Stats{RedSteps: 117, BlueSteps: 240, BluePhases: 2, RedPhases: 1}, false},
		{"lowest-edge-first", walk.LowestEdgeFirst{}, 0, walk.CoverTimes{Vertex: 214, Edge: 241}, walk.Stats{RedSteps: 1, BlueSteps: 240, BluePhases: 2, RedPhases: 1}, false},
		{"toward-visited", walk.TowardVisited{}, 0, walk.CoverTimes{Vertex: 239, Edge: 271}, walk.Stats{RedSteps: 31, BlueSteps: 240, BluePhases: 3, RedPhases: 2}, false},
		{"uniform budget", walk.Uniform{}, 250, walk.CoverTimes{Vertex: 214}, walk.Stats{RedSteps: 17, BlueSteps: 233, BluePhases: 1, RedPhases: 1}, true},
	}
	for _, c := range cases {
		e := walk.NewEProcess(g, newRand(32), c.rule, 3)
		ct, st, err := VerifiedRun(e, c.maxSteps)
		if c.budget != errors.Is(err, walk.ErrStepBudget) || !c.budget && err != nil {
			t.Fatalf("%s: error %v", c.name, err)
		}
		if ct != c.ct || st != c.st {
			t.Errorf("%s: VerifiedRun = %+v %+v, want %+v %+v", c.name, ct, st, c.ct, c.st)
		}
	}
}

func TestStarCensusPinned(t *testing.T) {
	// A 4-cycle beside an isolated vertex: no vertex cover exists, so
	// the run stops at edge cover with Cover.Vertex left 0.
	isolated := graph.MustFromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	cases := []struct {
		name     string
		g        func() (*graph.Graph, error)
		maxSteps int64
		want     StarStats
	}{
		{"3-regular n=400", func() (*graph.Graph, error) { return gen.RandomRegularSW(newRand(33), 400, 3) }, 0,
			StarStats{Peak: 8, EverCenters: 20, Cover: walk.CoverTimes{Vertex: 1596, Edge: 4360}}},
		{"4-regular n=400", func() (*graph.Graph, error) { return gen.RandomRegularSW(newRand(34), 400, 4) }, 0,
			StarStats{Cover: walk.CoverTimes{Vertex: 763, Edge: 803}}},
		{"3-regular n=1000", func() (*graph.Graph, error) { return gen.RandomRegularSW(newRand(35), 1000, 3) }, 0,
			StarStats{Peak: 24, EverCenters: 53, Cover: walk.CoverTimes{Vertex: 5245, Edge: 13710}}},
		{"isolated vertex", func() (*graph.Graph, error) { return isolated, nil }, 0,
			StarStats{Cover: walk.CoverTimes{Edge: 4}}},
		// A run the budget stops keeps its peak and cover times so far;
		// EverCenters is filled in only when the run reaches edge cover.
		{"3-regular n=400 budget", func() (*graph.Graph, error) { return gen.RandomRegularSW(newRand(33), 400, 3) }, 2000,
			StarStats{Peak: 8, Cover: walk.CoverTimes{Vertex: 1596}}},
	}
	for _, c := range cases {
		g, err := c.g()
		if err != nil {
			t.Fatal(err)
		}
		st, err := StarCensusRun(walk.NewEProcess(g, rng.NewXoshiro256(36), nil, 0), c.maxSteps)
		if (c.maxSteps > 0) != errors.Is(err, walk.ErrStepBudget) || c.maxSteps == 0 && err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st != c.want {
			t.Errorf("%s: StarCensusRun = %+v, want %+v", c.name, st, c.want)
		}
	}
}

func TestBluePhaseLengthsPinned(t *testing.T) {
	cases := []struct {
		deg  int
		want string
	}{
		{3, "03334a45904cb8c09ec0e378233ec2e6f0a56af868bd7d83ef7e04f39e06ce7f"},
		{4, "5c24084fc739ed89d15cd45acc5c53a9a62cc92c2bda499f90d71b3d9b13f363"},
		{6, "0f4ce260948199a82e8937d5fc54b50c8b0219ccafd83ebc7fdeb77f1787ea39"},
	}
	for _, c := range cases {
		g, err := gen.RandomRegularSW(newRand(37), 500, c.deg)
		if err != nil {
			t.Fatal(err)
		}
		lens, err := BluePhaseLengths(walk.NewEProcess(g, rng.NewXoshiro256(38), nil, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		fmt.Fprint(h, lens)
		got := hex.EncodeToString(h.Sum(nil))
		if got != c.want {
			t.Errorf("d=%d: phase lengths digest %s, want %s", c.deg, got, c.want)
		}
	}
}

// recorderDigest is the SHA-256 of a recording's step count and its
// FirstVisit, FirstTraversal and Visits arrays.
func recorderDigest(r *trace.Recorder) string {
	h := sha256.New()
	fmt.Fprintln(h, r.Steps)
	fmt.Fprintln(h, r.FirstVisit)
	fmt.Fprintln(h, r.FirstTraversal)
	fmt.Fprintln(h, r.Visits)
	return hex.EncodeToString(h.Sum(nil))
}

func TestTraceRecordersPinned(t *testing.T) {
	g, err := gen.RandomRegularSW(newRand(39), 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	procs := []struct {
		name string
		make func() walk.Process
	}{
		{"eprocess", func() walk.Process { return walk.NewEProcess(g, rng.NewXoshiro256(40), nil, 0) }},
		{"srw", func() walk.Process { return walk.NewSimple(g, rng.NewXoshiro256(40), 0) }},
		{"lazy", func() walk.Process { return walk.NewLazy(g, rng.NewXoshiro256(40), 0) }},
		{"srw math/rand", func() walk.Process { return walk.NewSimple(g, newRand(40), 0) }},
	}
	runs := []struct {
		name string
		run  func(walk.Process, int64) (*trace.Recorder, error)
	}{
		{"vertex", trace.RunUntilVertexCover},
		{"edge", trace.RunUntilEdgeCover},
	}
	want := map[string]string{
		"eprocess/vertex/0":        "1e6cafaa0e378b1257cdf1f4b297d3d7a1b5ae5d10c9b1fac0de4882a143f80b",
		"eprocess/vertex/300":      "2830760654807ee26ec69cfd42de1d96f31c11420d6ca3b94a6ac148af97ab69",
		"eprocess/edge/0":          "7b6de2c973d8e55249b62d00fff5e9ff9fbac3f7a8f66b5ff21131b0c1bbc510",
		"eprocess/edge/300":        "2830760654807ee26ec69cfd42de1d96f31c11420d6ca3b94a6ac148af97ab69",
		"srw/vertex/0":             "6a8eba030d9169379904b6de2ec0231574e75d9bf7b6dee2abecd4ce3bb8df75",
		"srw/vertex/300":           "23f14eb5fd58773bb115f0123dc936a5d66239330570b5f8a2f1d405f3cd77fa",
		"srw/edge/0":               "b10ab722e730a39d326192d9d65d812b5dfb64575cccf1769d87f9558c1ae98c",
		"srw/edge/300":             "23f14eb5fd58773bb115f0123dc936a5d66239330570b5f8a2f1d405f3cd77fa",
		"lazy/vertex/0":            "5489a1fca8ebd048fa298901e4d230b374549be7d02682ef3901fa344eae8e52",
		"lazy/vertex/300":          "12e86844c1494556aa50558bd846e71585a2795e56a1de7727832b11e57869f7",
		"lazy/edge/0":              "d107c99f137b2f275009093711579f95bd12945b69ed050d9f3414183e5b3d7e",
		"lazy/edge/300":            "12e86844c1494556aa50558bd846e71585a2795e56a1de7727832b11e57869f7",
		"srw math/rand/vertex/0":   "a5c2e89729e719ea29105c1dd7d4a1e056eaac1fc9544d256bec88594f316bdd",
		"srw math/rand/vertex/300": "1ef7340cd6063fa05f93169b700804fb55c43f2b981b8a0e04a8a915d7521fa4",
		"srw math/rand/edge/0":     "31505d4eb3cf9172ad7c2b6119a2a1fea98dcb8bd7a2a1d99b1bd71ee401fad8",
		"srw math/rand/edge/300":   "1ef7340cd6063fa05f93169b700804fb55c43f2b981b8a0e04a8a915d7521fa4",
	}
	for _, p := range procs {
		for _, r := range runs {
			for _, budget := range []int64{0, 300} {
				name := fmt.Sprintf("%s/%s/%d", p.name, r.name, budget)
				rec, err := r.run(p.make(), budget)
				if (budget > 0) != errors.Is(err, walk.ErrStepBudget) || budget == 0 && err != nil {
					t.Fatalf("%s: error %v", name, err)
				}
				got := recorderDigest(rec)
				if got != want[name] {
					t.Errorf("%s: recorder digest %s (%d steps), want %s", name, got, rec.Steps, want[name])
				}
			}
		}
	}
}
