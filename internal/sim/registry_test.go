package sim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/walk"
)

// --- registry surface -----------------------------------------------------

func TestRegistryCanonicalOrderAndLookup(t *testing.T) {
	want := []string{
		"thm1", "radzik", "cor2", "eq3", "thm3", "cor4",
		"hcube", "star", "rulea", "p1p2", "grw", "compare",
		"ablation", "growth", "bias", "eq4", "lemma13", "phases",
		"degseq", "fig1", "scalecover", "pcfcover", "churncover",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	var prevSalt uint64
	for i, e := range reg {
		if e.Name != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, e.Name, want[i])
		}
		if e.Desc == "" {
			t.Errorf("%s: empty description", e.Name)
		}
		if e.Salt <= prevSalt {
			t.Errorf("%s: salt %d not strictly increasing after %d", e.Name, e.Salt, prevSalt)
		}
		prevSalt = e.Salt
		got, ok := Lookup(e.Name)
		if !ok || got.Name != e.Name {
			t.Errorf("Lookup(%q) = %+v, %v", e.Name, got, ok)
		}
	}
	if names := Names(); len(names) != len(want) || names[0] != "thm1" || names[len(names)-1] != "churncover" {
		t.Errorf("Names() = %v", names)
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted unknown name")
	}
	if _, err := RunExperiment(context.Background(), "nope", ExpConfig{}); err == nil ||
		!strings.Contains(err.Error(), "thm1") {
		t.Errorf("RunExperiment(nope) error should list known names, got %v", err)
	}
}

// Every registered plan must be constructible without running walks,
// and must carry at least one point whose salt lives in the
// experiment's namespace.
func TestRegistryPlansConstructible(t *testing.T) {
	for _, e := range Registry() {
		plan, finish, err := e.Plan(ExpConfig{Seed: 1})
		if err != nil {
			t.Fatalf("%s: plan: %v", e.Name, err)
		}
		if finish == nil {
			t.Fatalf("%s: nil finish", e.Name)
		}
		if len(plan.Points) == 0 {
			t.Fatalf("%s: empty plan", e.Name)
		}
		if len(plan.Seeds()) == 0 {
			t.Fatalf("%s: no derivable seeds", e.Name)
		}
	}
}

// --- RunContext: cancellation, draining, leak-freedom ---------------------

// slowCountingPlan builds a many-unit plan whose arms sleep briefly and
// count invocations, so a cancellation can land mid-sweep.
func slowCountingPlan(units int, delay time.Duration, ran *atomic.Int64) *SweepPlan {
	arm := Arm{Name: "sleep", Run: func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
		ran.Add(1)
		time.Sleep(delay)
		return Measurement{}, nil
	}}
	plan := &SweepPlan{Config: Config{Seed: 11, Trials: 1, Workers: 2}}
	for i := 0; i < units; i++ {
		plan.Points = append(plan.Points, PointSpec{
			Key:   "slow",
			Salt:  Salt(1000, uint64(i)),
			Graph: regularFactory(8, 3),
			Arms:  []Arm{arm},
		})
	}
	return plan
}

func TestRunContextCancelledMidSweepIsPromptAndLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	var ran atomic.Int64
	plan := slowCountingPlan(200, 2*time.Millisecond, &ran)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Let a few units start, then pull the plug.
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := plan.RunContext(ctx, RunOptions{})
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("RunContext after cancel = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned results")
	}
	// Prompt: far below the ~400ms a full serial run would need.
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if n := ran.Load(); n == 0 || n >= 200 {
		t.Errorf("cancelled run executed %d of 200 units (want some, not all)", n)
	}
	// Workers must have drained: goroutine count returns to baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestRunContextPreCancelledRunsNothing(t *testing.T) {
	var ran atomic.Int64
	plan := slowCountingPlan(8, 0, &ran)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.RunContext(ctx, RunOptions{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("pre-cancelled run executed %d units", n)
	}
}

// A completed RunContext under context.Background() must be
// byte-identical to the legacy Run() path.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	cfg := ExpConfig{Seed: 41, Trials: 2}
	render := func(points []PointResult, finish Finish) string {
		res, err := finish(points)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Table.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	planA, finA, err := e.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pointsA, err := planA.Run()
	if err != nil {
		t.Fatal(err)
	}
	planB, finB, err := e.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pointsB, err := planB.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := render(pointsA, finA), render(pointsB, finB); a != b {
		t.Errorf("Run vs RunContext tables differ:\n--- Run ---\n%s--- RunContext ---\n%s", a, b)
	}
}

func TestProgressCallbackCountsEveryUnit(t *testing.T) {
	var ran atomic.Int64
	plan := slowCountingPlan(12, 0, &ran)
	var calls []int
	var lastTotal int
	// Workers=1 would serialise anyway; use the plan's 2 workers and
	// rely on the documented serialisation of Progress calls.
	_, err := plan.RunContext(context.Background(), RunOptions{Progress: func(done, total int) {
		calls = append(calls, done)
		lastTotal = total
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 12 || lastTotal != 12 {
		t.Fatalf("progress calls = %d (total %d), want 12", len(calls), lastTotal)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done sequence %v not cumulative", calls)
		}
	}
}

// --- Result JSON: golden files, worker invariance, round trip -------------

// The payload representatives: eq3 (plain []row payload) and degseq (the
// bundled rows+growth payload). thm1, thm3, p1p2, grw and lemma13 pin
// the post-sweep analysis (λ2, ℓ, girth, census) at full precision,
// which the rounded tables cannot. Regenerate with:
//
//	UPDATE_GOLDEN=1 go test ./internal/sim -run TestResultJSONGolden
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

func TestResultJSONGoldenWorkerInvariantRoundTrip(t *testing.T) {
	for _, name := range []string{"eq3", "degseq", "thm1", "thm3", "p1p2", "grw", "lemma13"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		encode := func(workers int) []byte {
			res, err := e.Run(context.Background(), ExpConfig{Seed: 2012, Trials: 2, Workers: workers}, RunOptions{})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		serial := encode(1)
		if parallel := encode(8); !bytes.Equal(serial, parallel) {
			t.Errorf("%s: JSON differs between Workers=1 and Workers=8", name)
		}
		golden := filepath.Join("testdata", "result_"+name+".json")
		if updateGolden {
			if err := os.WriteFile(golden, serial, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s (set UPDATE_GOLDEN=1 to regenerate): %v", golden, err)
		}
		if !bytes.Equal(serial, want) {
			t.Errorf("%s: JSON drifted from golden file %s", name, golden)
		}
		// Round trip: the decoded result reconstructs the stamp and the
		// table exactly.
		dec, err := ReadResult(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		if dec.Name != name || dec.Seed != 2012 || dec.Trials != 2 || dec.Scale != 1 {
			t.Errorf("%s: decoded stamp %q seed=%d trials=%d scale=%d", name, dec.Name, dec.Seed, dec.Trials, dec.Scale)
		}
		live, err := e.Run(context.Background(), ExpConfig{Seed: 2012, Trials: 2}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := dec.Table.WriteText(&a); err != nil {
			t.Fatal(err)
		}
		if err := live.Table.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: decoded table differs from live table", name)
		}
	}
}
