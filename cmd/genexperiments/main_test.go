package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// runMainEnv, when set, makes the test binary run the genexperiments
// command itself, so a test can check its exit status in a child
// process.
const runMainEnv = "GENEXPERIMENTS_TEST_RUN_MAIN"

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
	args := []string{"-o", "no-such-file.md", "stray"}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Errorf("genexperiments %q: %v, want exit status 2\n%s", args, err, out)
	}
	if !strings.Contains(string(out), `unexpected argument "stray"`) {
		t.Errorf("genexperiments %q: output does not name the stray argument:\n%s", args, out)
	}
}

// The published EXPERIMENTS.md must match the live registry: a
// registration added, renamed or re-described without running
// `go generate ./...` fails here.
func TestExperimentsMarkdownIsCurrent(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	updated, err := sim.SpliceRegistryMarkdown(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if updated != string(raw) {
		t.Fatal("EXPERIMENTS.md is stale: run `go generate ./...` and commit the result")
	}
	// Spot-check the generated block carries the registry: every
	// registered name appears between the markers.
	block := updated[strings.Index(updated, sim.RegistryMarkdownBegin):strings.Index(updated, sim.RegistryMarkdownEnd)]
	for _, name := range sim.Names() {
		if !strings.Contains(block, "| "+name) {
			t.Errorf("generated table is missing experiment %q", name)
		}
	}
}

// run in -check mode must flag a stale document and leave it untouched.
func TestRunCheckModeFlagsDrift(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "EXPERIMENTS.md")
	stale := "prose\n" + sim.RegistryMarkdownBegin + "\nold table\n" + sim.RegistryMarkdownEnd + "\nmore prose\n"
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, true); err == nil {
		t.Fatal("-check accepted a stale document")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != stale {
		t.Fatal("-check rewrote the document")
	}
	// Writing mode fixes it; a second -check passes and a second write
	// is a no-op (idempotent splice).
	if err := run(path, false); err != nil {
		t.Fatal(err)
	}
	if err := run(path, true); err != nil {
		t.Fatalf("regenerated document still flagged stale: %v", err)
	}
	if !strings.Contains(mustRead(t, path), "| thm1") {
		t.Fatal("regenerated table missing thm1")
	}
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
