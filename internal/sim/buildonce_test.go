package sim

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/walk"
)

// buildOnceExperiment is a two-point experiment on deterministic
// families: point 0 (a circulant) declares KeepRep, as thm3's points
// do, and point 1 (a torus) does not. builds counts every construction
// of each point's graph. With shared set, each point's factory is
// buildOnce; without it, every call rebuilds, which is the reference a
// shared instance must match byte for byte. seen, when non-nil,
// collects every graph instance the arms ran on, and the Rep.
func buildOnceExperiment(builds *[2]atomic.Int64, shared bool, seen *instanceLog) Experiment {
	factory := func(pi int, build func() (*graph.Graph, error)) GraphFactory {
		counted := func() (*graph.Graph, error) {
			builds[pi].Add(1)
			return build()
		}
		if shared {
			return buildOnce(counted)
		}
		return func(*rand.Rand) (*graph.Graph, error) { return counted() }
	}
	arm := eprocessArm("eprocess")
	plan := func(cfg ExpConfig) (*SweepPlan, Finish, error) {
		run := arm.Run
		if seen != nil {
			run = func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
				seen.add(g)
				return arm.Run(trial, g, r, sc, maxSteps)
			}
		}
		pl := &SweepPlan{Config: cfg.config(), Points: []PointSpec{
			{Key: "circulant", Salt: Salt(saltRun, 1), Arms: []Arm{{Name: "eprocess", Run: run}}, KeepRep: true,
				Graph: factory(0, func() (*graph.Graph, error) { return gen.Circulant(30, []int{1, 4}) })},
			{Key: "torus", Salt: Salt(saltRun, 2), Arms: []Arm{{Name: "eprocess", Run: run}},
				Graph: factory(1, func() (*graph.Graph, error) { return gen.Torus(5, 6) })},
		}}
		finish := func(points []PointResult) (*Result, error) {
			rep := points[0].Rep
			if rep == nil {
				return nil, errors.New("KeepRep point has no Rep")
			}
			if seen != nil {
				seen.add(rep)
			}
			tb := NewTable("buildonce", "point", "n", "girth", "C_V", "C_E")
			for i, pt := range points {
				n, girth := 30, 0
				if i == 0 {
					girth = rep.Girth()
				}
				tb.AddRow(pt.Key, n, girth, pt.Arms[0].VertexStats.Mean, pt.Arms[0].EdgeStats.Mean)
			}
			return &Result{Table: tb}, nil
		}
		return pl, finish, nil
	}
	return Experiment{Name: "buildonce", Salt: saltRun, Plan: plan}
}

// instanceLog records the distinct graph instances a run handed out.
type instanceLog struct {
	mu sync.Mutex
	gs map[*graph.Graph]bool
}

func (l *instanceLog) add(g *graph.Graph) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gs == nil {
		l.gs = make(map[*graph.Graph]bool)
	}
	l.gs[g] = true
}

// take returns the number of distinct instances recorded and clears
// the log.
func (l *instanceLog) take() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.gs)
	l.gs = nil
	return n
}

// A deterministic family's graph is built once per point per run,
// under every way of running: one worker or several, interrupted and
// resumed, sharded and merged (where the KeepRep point's restored
// representative is the shared instance). Every result matches a run
// that rebuilds the graph for every trial, byte for byte.
func TestDeterministicGraphBuiltOncePerRun(t *testing.T) {
	var builds [2]atomic.Int64
	counts := func() [2]int64 { return [2]int64{builds[0].Swap(0), builds[1].Swap(0)} }
	var seen instanceLog
	shared := buildOnceExperiment(&builds, true, &seen)
	cfg := ExpConfig{Seed: 5, Trials: 3}

	cfg.Workers = 1
	ref, err := buildOnceExperiment(&builds, false, nil).Run(context.Background(), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c := counts(); c != [2]int64{3, 3} {
		t.Fatalf("rebuilding reference built %v graphs per point, want one per trial", c)
	}
	refJSON, refTable := resultBytes(t, ref)
	same := func(what string, res *Result) {
		t.Helper()
		if j, tb := resultBytes(t, res); j != refJSON || tb != refTable {
			t.Errorf("%s differs from the run that rebuilds per trial", what)
		}
	}

	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		res, err := shared.Run(context.Background(), cfg, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if c := counts(); c != [2]int64{1, 1} {
			t.Errorf("Workers=%d built %v graphs per point, want one each", workers, c)
		}
		// One instance per point: the arms' and the Rep (point 0's).
		if n := seen.take(); n != 2 {
			t.Errorf("Workers=%d handed out %d graph instances, want 2", workers, n)
		}
		same("a shared-instance run", res)
	}

	// Interrupted after the first two units (both of point 0), then
	// resumed: the resumed run builds each point's graph once, and the
	// restored KeepRep point's representative is the instance its
	// remaining trial ran on.
	cfg.Workers = 1
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	_, err = shared.Run(ctx, cfg, RunOptions{
		Checkpoint: &Checkpoint{Dir: dir},
		Progress: func(done, total int) {
			if done == 2 {
				cancel()
			}
		},
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if c := counts(); c != [2]int64{1, 0} {
		t.Errorf("interrupted run built %v graphs per point, want [1 0]", c)
	}
	seen.take()
	resumed, err := shared.Run(context.Background(), cfg, RunOptions{Checkpoint: &Checkpoint{Dir: dir, Resume: true}})
	if err != nil {
		t.Fatal(err)
	}
	if c := counts(); c != [2]int64{1, 1} {
		t.Errorf("resumed run built %v graphs per point, want one each", c)
	}
	if n := seen.take(); n != 2 {
		t.Errorf("resumed run handed out %d graph instances, want 2", n)
	}
	same("the resumed run", resumed)

	// Two point shards, then a merge: each shard builds only its own
	// point's graph, and the merge builds the KeepRep point's once.
	var dirs []string
	for s, want := range [][2]int64{{1, 0}, {0, 1}} {
		d := t.TempDir()
		if err := shared.RunShard(context.Background(), cfg, Shard{Index: s, Count: 2}, RunOptions{Checkpoint: &Checkpoint{Dir: d}}); err != nil {
			t.Fatal(err)
		}
		if c := counts(); c != want {
			t.Errorf("shard %d built %v graphs per point, want %v", s, c, want)
		}
		dirs = append(dirs, d)
	}
	merged, err := MergeShards(context.Background(), shared, cfg, dirs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c := counts(); c != [2]int64{1, 0} {
		t.Errorf("merge built %v graphs per point, want [1 0]", c)
	}
	same("the merged run", merged)
}

// The registry's deterministic families hand every trial of a run one
// instance (and thm3's representative is that instance), while
// a random family still builds one graph per trial.
func TestRegistryDeterministicFamiliesShareOneInstance(t *testing.T) {
	sharedPoints := map[string]bool{
		"compare torus":          true,
		"hcube r=6":              true,
		"hcube r=8":              true,
		"hcube r=10":             true,
		"thm3 circulant(n;1,2)":  true,
		"thm3 circulant(n;1,20)": true,
		"thm3 lps(5,13)":         true,
	}
	for _, name := range []string{"compare", "hcube", "thm3"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("no experiment %q", name)
		}
		logs := map[string]*instanceLog{}
		var keys []string
		plan := e.Plan
		e.Plan = func(cfg ExpConfig) (*SweepPlan, Finish, error) {
			pl, finish, err := plan(cfg)
			if err != nil {
				return nil, nil, err
			}
			for i := range pl.Points {
				pt := &pl.Points[i]
				l := &instanceLog{}
				logs[pt.Key] = l
				keys = append(keys, pt.Key)
				for j := range pt.Arms {
					run := pt.Arms[j].Run
					pt.Arms[j].Run = func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
						l.add(g)
						return run(trial, g, r, sc, maxSteps)
					}
				}
			}
			return pl, func(points []PointResult) (*Result, error) {
				for _, pt := range points {
					if pt.Rep != nil && sharedPoints[pt.Key] {
						logs[pt.Key].add(pt.Rep)
					}
				}
				return finish(points)
			}, nil
		}
		if _, err := e.Run(context.Background(), ExpConfig{Seed: 2, Trials: 3, Workers: 2}, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			want := 3
			if sharedPoints[key] {
				want = 1
			}
			if n := logs[key].take(); n != want {
				t.Errorf("%s: arms (and Rep) saw %d graph instances over 3 trials, want %d", key, n, want)
			}
		}
	}
}
