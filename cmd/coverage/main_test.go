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
	"repro/internal/trace"
)

// runMainEnv, when set, makes the test binary run the coverage command
// itself, so a test can check its exit status in a child process.
const runMainEnv = "COVERAGE_TEST_RUN_MAIN"

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
		t.Errorf("coverage %q: %v, want exit status 2\n%s", args, err, out)
	}
	if !strings.Contains(string(out), `unexpected argument "stray"`) {
		t.Errorf("coverage %q: output does not name the stray argument:\n%s", args, out)
	}
}

func TestCoverageBuildHelpers(t *testing.T) {
	r := rand.New(rng.New(rng.KindXoshiro, 1))
	g, err := gen.ByName("regular", 40, 4, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"srw", "eprocess", "vprocess", "rwc2", "rwc3", "rotor", "biased"} {
		p, err := buildProcess(name, g, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec, err := trace.RunUntilVertexCover(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		curve, err := rec.VertexCoverageCurve(defaultFractions)
		if err != nil {
			t.Fatal(err)
		}
		if curve[len(curve)-1] <= 0 {
			t.Errorf("%s: no cover step", name)
		}
	}
	if _, err := buildProcess("nope", g, r); err == nil {
		t.Error("unknown process should fail")
	}
}
