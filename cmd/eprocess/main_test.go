package main

import (
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/walk"
)

// runMainEnv, when set, makes the test binary run the eprocess command
// itself, so a test can check its exit status in a child process.
const runMainEnv = "EPROCESS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A positional argument is a usage error (exit 2) that names it: flag
// parsing stops at the first non-flag, so ignoring it would silently
// drop every flag after it.
func TestStrayArgumentExitsTwo(t *testing.T) {
	for _, args := range [][]string{{"-n", "200", "stray"}, {"-rule", "nope", "stray"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("eprocess %q: %v, want exit status 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), `unexpected argument "stray"`) {
			t.Errorf("eprocess %q: output does not name the stray argument:\n%s", args, out)
		}
	}
}

func testRand() *rand.Rand { return rand.New(rng.New(rng.KindXoshiro, 1)) }

// Every -graph kind eprocess accepts builds a connected graph through
// gen.ByName, an odd n·degree included, and an unknown kind fails.
func TestBuildGraphKinds(t *testing.T) {
	r := testRand()
	cases := []struct {
		kind   string
		n, deg int
		dim    int
	}{
		{"regular", 50, 4, 0},
		{"regular", 51, 3, 0}, // odd n·d bumped internally
		{"hypercube", 0, 0, 5},
		{"torus", 25, 0, 0},
		{"cycle", 12, 0, 0},
		{"circulant", 36, 0, 0},
		{"rgg", 60, 0, 0},
	}
	for _, tc := range cases {
		g, err := gen.ByName(tc.kind, tc.n, tc.deg, tc.dim, r)
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if g.N() == 0 {
			t.Errorf("%s: empty graph", tc.kind)
		}
		if !g.IsConnected() {
			t.Errorf("%s: disconnected", tc.kind)
		}
	}
	if _, err := gen.ByName("nope", 10, 3, 3, r); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestRuleByName(t *testing.T) {
	names := map[string]string{
		"uniform":     "uniform",
		"lowest":      "lowest-edge-first",
		"highest":     "highest-edge-first",
		"round-robin": "round-robin",
		"adversary":   "adversary-toward-visited",
		"greedy":      "toward-unvisited",
	}
	for arg, want := range names {
		rule, err := ruleByName(arg)
		if err != nil {
			t.Fatalf("ruleByName(%q): %v", arg, err)
		}
		if got := rule.Name(); got != want {
			t.Errorf("ruleByName(%q) = %q, want %q", arg, got, want)
		}
	}
	// An unknown -rule must fail and name the valid rules, not silently
	// run the uniform rule.
	for _, arg := range []string{"nope", "", "Uniform"} {
		rule, err := ruleByName(arg)
		if err == nil {
			t.Errorf("ruleByName(%q) = %v, want an error", arg, rule)
			continue
		}
		if !strings.Contains(err.Error(), "round-robin") {
			t.Errorf("ruleByName(%q) error %q does not name the valid rules", arg, err)
		}
	}
}

func TestBuildProcessKinds(t *testing.T) {
	r := testRand()
	g, err := gen.ByName("torus", 25, 0, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"eprocess", "srw", "lazy", "rwc2", "rwc3", "rotor", "least-used", "oldest-first"} {
		p, err := buildProcess(name, walk.Uniform{}, g, r, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := walk.VertexCoverSteps(p, 0); err != nil {
			t.Fatalf("%s cover: %v", name, err)
		}
	}
	if _, err := buildProcess("nope", walk.Uniform{}, g, r, 0); err == nil {
		t.Error("unknown process should fail")
	}
}
