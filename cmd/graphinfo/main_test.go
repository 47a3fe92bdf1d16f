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
)

// runMainEnv, when set, makes the test binary run the graphinfo command
// itself, so a test can check its exit status in a child process.
const runMainEnv = "GRAPHINFO_TEST_RUN_MAIN"

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
	args := []string{"-graph", "nope", "stray"}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Errorf("graphinfo %q: %v, want exit status 2\n%s", args, err, out)
	}
	if !strings.Contains(string(out), `unexpected argument "stray"`) {
		t.Errorf("graphinfo %q: output does not name the stray argument:\n%s", args, out)
	}
}

// Every -graph kind graphinfo accepts builds a valid graph through
// gen.ByName, and an unknown kind fails.
func TestGraphinfoBuildGraph(t *testing.T) {
	r := rand.New(rng.New(rng.KindXoshiro, 1))
	kinds := []struct {
		kind string
		n    int
	}{
		{"regular", 40},
		{"hypercube", 0},
		{"torus", 16},
		{"cycle", 9},
		{"circulant", 25},
		{"rgg", 50},
		{"margulis", 16},
	}
	for _, tc := range kinds {
		g, err := gen.ByName(tc.kind, tc.n, 4, 4, r)
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if g.N() == 0 {
			t.Errorf("%s: empty graph", tc.kind)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", tc.kind, err)
		}
	}
	if _, err := gen.ByName("nope", 10, 4, 4, r); err == nil {
		t.Error("unknown kind should fail")
	}
}
