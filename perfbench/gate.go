package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// recordedJSON holds the digests of every output the workloads produce
// for a range of seeds, made with --record-digests. A run whose
// (workload, scale, seed) is recorded must reproduce them byte for byte.
//
//go:embed digests.json
var recordedJSON []byte

// digestSet maps an output's key (an experiment name, or an experiment
// and seed for serve) to the digest of its bytes.
type digestSet map[string]string

// digestOf is the hex of the first 16 bytes of the SHA-256 of b.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// runID names a workload's outputs: they are a pure function of it.
func runID(w *workload, seed uint64) string {
	return fmt.Sprintf("%s/scale%d/seed%d", w.name, w.scale, seed)
}

// localDigestsPath records the digests of seeds that digests.json does
// not hold, so repeated runs in one checkout are checked against each
// other.
var localDigestsPath = filepath.Join(buildDir, "digests-local.json")

// gate is the output check: every output's digest must equal the
// reference for its key, and every failed or mismatched output counts
// as a failed operation.
type gate struct {
	ref       digestSet
	source    string // where ref came from: recorded, local or first-run
	attempted int
	failed    int
	problems  []string
}

// newGate loads the reference digests for the run id: the recorded
// ones if digests.json holds them, else those a previous run of this
// checkout saved, else none (the first output of each key becomes its
// reference).
func newGate(id string) (*gate, error) {
	g := &gate{ref: digestSet{}, source: "first-run"}
	var recorded map[string]digestSet
	if err := json.Unmarshal(recordedJSON, &recorded); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if ref, ok := recorded[id]; ok {
		g.ref, g.source = ref, "recorded"
		return g, nil
	}
	local, err := readDigests(localDigestsPath)
	if err != nil {
		return nil, err
	}
	if ref, ok := local[id]; ok {
		g.ref, g.source = ref, "local"
	}
	return g, nil
}

// check counts one operation on key: it fails when err is set or the
// digest differs from the reference. The first digest seen for a key
// without a reference becomes its reference.
func (g *gate) check(key, digest string, err error) bool {
	want, ok := g.ref[key]
	if !ok && err == nil {
		g.ref[key], want = digest, digest
	}
	return g.match(key, want, digest, err)
}

// match counts one operation on key: it fails when err is set or the
// digest got differs from want.
func (g *gate) match(key, want, got string, err error) bool {
	g.attempted++
	if err != nil {
		return g.fail("%s: %v", key, err)
	}
	if got != want {
		return g.fail("%s: digest %s, want %s (%s)", key, got, want, g.source)
	}
	return true
}

func (g *gate) fail(format string, args ...any) bool {
	g.failed++
	if len(g.problems) < 20 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
	return false
}

// save stores the reference digests under id in the local record, so a
// later run of an unrecorded seed is checked against this one.
func (g *gate) save(id string) error {
	if g.source == "recorded" || g.failed > 0 {
		return nil
	}
	local, err := readDigests(localDigestsPath)
	if err != nil {
		return err
	}
	local[id] = g.ref
	return writeDigests(localDigestsPath, local)
}

func readDigests(path string) (map[string]digestSet, error) {
	out := map[string]digestSet{}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// writeDigests writes the map with sorted keys (encoding/json sorts map
// keys) through a temporary file and a rename.
func writeDigests(path string, m map[string]digestSet) error {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// recordDigests runs every workload once for each seed in the range
// "FROM-TO" and rewrites perfbench/digests.json with the digests of all
// their outputs.
func recordDigests(span string) error {
	from, to, ok := strings.Cut(span, "-")
	lo, err1 := strconv.ParseUint(from, 10, 64)
	hi, err2 := strconv.ParseUint(to, 10, 64)
	if !ok || err1 != nil || err2 != nil || lo > hi {
		return fmt.Errorf("--record-digests wants FROM-TO, not %q", span)
	}
	ctx := context.Background()
	all := map[string]digestSet{}
	for seed := lo; seed <= hi; seed++ {
		for _, w := range workloads() {
			set := digestSet{}
			if w.name == "serve" {
				for _, k := range serveSetUpKeys(seed) {
					body, err := directRun(ctx, k, nil, -1)
					if err != nil {
						return err
					}
					set[k.id()] = digestOf(body)
				}
			} else {
				p, err := runPass(ctx, w, seed, filepath.Join(buildDir, "record"), nil)
				if err != nil {
					return err
				}
				for _, e := range p.Exps {
					if e.Err != "" {
						return fmt.Errorf("%s seed %d: %s: %s", w.name, seed, e.Name, e.Err)
					}
					set[e.Name] = e.Digest
				}
			}
			all[runID(w, seed)] = set
			fmt.Fprintf(os.Stderr, "recorded %s\n", runID(w, seed))
		}
	}
	return writeDigests(filepath.Join("perfbench", "digests.json"), all)
}
