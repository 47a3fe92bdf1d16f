package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

// runMainEnv, when set, makes the test binary run the sweep command
// itself, so tests can drive the real CLI (flags, stdout, stderr) in a
// child process without building a separate binary.
const runMainEnv = "SWEEP_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the sweep command with args in a child process and
// returns its stdout and stderr.
func runCLI(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("sweep %v: %v\n%s", args, err, errb.String())
	}
	return out.String(), errb.String()
}

// The CLI no longer carries its own experiment list: everything is
// driven by sim.Registry(). These tests pin the CLI-visible properties
// of that surface (selection, sharding, tiny end-to-end runs).

func TestRegistryDrivenSelection(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(sim.Registry()) {
		t.Fatalf("selectExperiments(all) = %d experiments, registry has %d", len(all), len(sim.Registry()))
	}
	sel, err := selectExperiments("radzik, thm1")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "radzik" || sel[1].Name != "thm1" {
		t.Fatalf("selection order not preserved: %+v", sel)
	}
	if _, err := selectExperiments("nope"); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("unknown experiment error should list known names, got %v", err)
	}
}

func TestEveryExperimentRunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny full-registry run still takes seconds")
	}
	cfg := sim.ExpConfig{Seed: 9, Trials: 1, Scale: 1}
	for _, e := range sim.Registry() {
		if e.Name == "fig1" {
			continue // its default grid reaches n=8000; covered by sim's own tests
		}
		res, err := e.Run(context.Background(), cfg, sim.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		var buf bytes.Buffer
		if err := res.Table.WriteText(&buf); err != nil {
			t.Fatalf("%s render: %v", e.Name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced empty table", e.Name)
		}
	}
}

func TestParseShard(t *testing.T) {
	spec, err := parseShard("1/4")
	if err != nil || spec.Index != 1 || spec.Count != 4 || spec.points {
		t.Fatalf("parseShard(1/4) = %+v, %v", spec, err)
	}
	spec, err = parseShard("3/8@points")
	if err != nil || spec.Index != 3 || spec.Count != 8 || !spec.points {
		t.Fatalf("parseShard(3/8@points) = %+v, %v", spec, err)
	}
	for _, bad := range []string{"", "x", "4/4", "-1/4", "1/0", "2/1", "1/4x", "1/4/2", " 1/4", "1/ 4",
		"1/4@", "1/4@point", "1/4@units", "1/4 @points", "1/4@points ", "4/4@points", "@points", "1/4@points@points"} {
		if _, err := parseShard(bad); err == nil {
			t.Errorf("parseShard(%q) accepted", bad)
		}
	}
}

// FuzzParseShard: accepted specs must always be in-range and must
// round-trip through their canonical rendering — a misparsed shard
// spec would silently leave part of a multi-machine sweep unrun. The
// checked-in seed corpus (testdata/fuzz) runs on every plain `go test`.
func FuzzParseShard(f *testing.F) {
	for _, s := range []string{"0/1", "1/4", "3/8@points", "0/2@points", "", "x", "4/4", "-1/4",
		"1/0", "1/4x", "1/4@", "1/4@point", " 1/4", "1/4/2", "1/4@points@points", "01/4", "+1/4"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := parseShard(s)
		if err != nil {
			return
		}
		if spec.Index < 0 || spec.Index >= spec.Count {
			t.Fatalf("parseShard(%q) accepted out-of-range spec %+v", s, spec)
		}
		canon := fmt.Sprintf("%d/%d", spec.Index, spec.Count)
		if spec.points {
			canon += "@points"
		}
		back, err := parseShard(canon)
		if err != nil || back != spec {
			t.Fatalf("parseShard(%q) = %+v does not round-trip through %q (%+v, %v)", s, spec, canon, back, err)
		}
	})
}

// shardSelect must partition the selected experiments into in-order
// contiguous blocks: concatenating all shards reproduces the unsharded
// selection exactly, for any shard count (including m > len).
func TestShardsPartitionExperiments(t *testing.T) {
	all := sim.Registry()
	for _, m := range []int{1, 2, 3, len(all), len(all) + 5} {
		var concat []string
		for i := 0; i < m; i++ {
			for _, e := range shardSelect(all, i, m) {
				concat = append(concat, e.Name)
			}
		}
		if len(concat) != len(all) {
			t.Fatalf("m=%d: shards cover %d experiments, want %d", m, len(concat), len(all))
		}
		for j, e := range all {
			if concat[j] != e.Name {
				t.Fatalf("m=%d: concatenated shard order differs at %d: %q vs %q", m, j, concat[j], e.Name)
			}
		}
	}
}

// Inconsistent flag combinations must fail fast as usage errors (exit
// 2), before any experiment runs: a fleet script that typos a resume or
// merge invocation should learn immediately, not after burning
// machine-hours or journaling into a fresh directory.
func TestValidateRejectsInconsistentFlags(t *testing.T) {
	cases := []struct {
		name string
		f    cliFlags
		want string
	}{
		{"resume without checkpoint", cliFlags{resume: true}, "-resume needs -checkpoint"},
		{"merge with shard", cliFlags{merge: "a,b", shard: "0/2"}, "cannot be combined"},
		{"merge with checkpoint", cliFlags{merge: "a,b", ckDir: "ck"}, "cannot be combined"},
		{"malformed shard spec", cliFlags{shard: "2/1"}, "shard"},
		{"point shard without checkpoint", cliFlags{shard: "0/2@points"}, "needs -checkpoint"},
		{"point shard with json", cliFlags{shard: "0/2@points", ckDir: "ck", jsonDir: "out"}, "no Results"},
		{"point shard with report", cliFlags{shard: "0/2@points", ckDir: "ck", report: "r.md"}, "no Results"},
		{"negative trials", cliFlags{trials: -1}, "-trials -1"},
		{"unknown rng", cliFlags{rng: "mt"}, "unknown RNG kind"},
		{"stray argument", cliFlags{jsonDir: "-seed", args: []string{"1"}}, `unexpected argument "1"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := tc.f.validate()
			if err == nil {
				t.Fatalf("validate(%+v) accepted inconsistent flags", tc.f)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("diagnostic %q does not mention %q", err, tc.want)
			}
			if exitCode(err) != 2 {
				t.Errorf("exitCode(%v) = %d, want 2 (usage error)", err, exitCode(err))
			}
		})
	}

	// The consistent combinations still pass.
	for _, f := range []cliFlags{
		{},
		{ckDir: "ck"},
		{ckDir: "ck", resume: true},
		{shard: "1/3"},
		{shard: "1/3", jsonDir: "out"},
		{shard: "1/3@points", ckDir: "ck"},
		{merge: "a,b", jsonDir: "out"},
		{merge: "a,b", report: "r.md"},
		{shard: "1/3", report: "r.md"},
		{rng: "mt19937", trials: 3},
	} {
		if _, _, err := f.validate(); err != nil {
			t.Errorf("validate(%+v) = %v, want nil", f, err)
		}
	}
}

// exitCode separates usage mistakes (2) from failed runs (1): fleet
// wrappers branch on the distinction.
func TestExitCodeClassification(t *testing.T) {
	if c := exitCode(nil); c != 0 {
		t.Errorf("exitCode(nil) = %d, want 0", c)
	}
	if c := exitCode(fmt.Errorf("walk diverged")); c != 1 {
		t.Errorf("exitCode(runtime error) = %d, want 1", c)
	}
	if c := exitCode(usagef("bad flags")); c != 2 {
		t.Errorf("exitCode(usage error) = %d, want 2", c)
	}
	if c := exitCode(fmt.Errorf("wrapped: %w", usagef("bad flags"))); c != 2 {
		t.Errorf("exitCode(wrapped usage error) = %d, want 2", c)
	}
}

// -v reports on stderr only: stdout and the -json Results stay
// byte-identical, and the exit report names the wall time and, on
// Linux, the peak RSS.
func TestVerboseLeavesOutputBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two tiny sweeps in child processes")
	}
	args := []string{"-exp", "eq3,hcube,thm3", "-trials", "1", "-seed", "5"}
	quietDir, verboseDir := t.TempDir(), t.TempDir()
	quiet, _ := runCLI(t, append(args, "-json", quietDir)...)
	verbose, stderr := runCLI(t, append(args, "-json", verboseDir, "-v")...)
	if quiet != verbose {
		t.Errorf("-v changed stdout:\n--- quiet ---\n%s--- verbose ---\n%s", quiet, verbose)
	}
	for _, name := range []string{"eq3", "hcube", "thm3"} {
		a, err := os.ReadFile(filepath.Join(quietDir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(verboseDir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("-v changed %s.json", name)
		}
	}
	if !strings.Contains(stderr, "sweep: wall ") {
		t.Errorf("-v stderr lacks the wall-time report:\n%s", stderr)
	}
	if runtime.GOOS == "linux" && !strings.Contains(stderr, ", peak RSS ") {
		t.Errorf("-v stderr lacks the peak-RSS report:\n%s", stderr)
	}
}
