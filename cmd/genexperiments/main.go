// Command genexperiments regenerates the experiment table in
// EXPERIMENTS.md from the live registry in internal/sim. It is the
// repository's `go generate` entry point for documentation:
//
//	go generate ./...
//
// rewrites the block between the BEGIN/END markers in place (a no-op
// when already current), and
//
//	go run ./cmd/genexperiments -check
//
// exits non-zero when the file has drifted from the registry — the
// mode CI and the drift test use. Everything outside the markers is
// hand-written and never touched.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/sim"
)

func run(path string, check bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	updated, err := sim.SpliceRegistryMarkdown(string(raw))
	if err != nil {
		return err
	}
	if updated == string(raw) {
		return nil
	}
	if check {
		return fmt.Errorf("%s is stale: the experiment table does not match the registry; run `go generate ./...`", path)
	}
	return os.WriteFile(path, []byte(updated), 0o644)
}

func main() {
	check := flag.Bool("check", false, "verify the table is current instead of rewriting it")
	path := flag.String("o", "EXPERIMENTS.md", "document to regenerate")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "genexperiments: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*path, *check); err != nil {
		fmt.Fprintln(os.Stderr, "genexperiments:", err)
		os.Exit(1)
	}
}
