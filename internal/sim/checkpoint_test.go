package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// resultBytes renders a Result to its two canonical byte forms: the
// stable JSON encoding and the rendered table (with notes). Durable-run
// equivalence is asserted on both.
func resultBytes(t *testing.T, res *Result) (string, string) {
	t.Helper()
	var j bytes.Buffer
	if err := res.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := res.Table.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	for _, note := range res.Notes {
		fmt.Fprintln(&tb, note)
	}
	return j.String(), tb.String()
}

// durableExperiments is the set the equivalence suite sweeps: the whole
// registry, trimmed to a representative subset in -short mode (the
// subset keeps the Extra-channel experiments, a zero-arm structural
// plan and a multi-arm plan — the shapes restore has to get right).
func durableExperiments(t *testing.T) []Experiment {
	if !testing.Short() {
		return Registry()
	}
	var out []Experiment
	for _, name := range []string{"thm1", "eq3", "p1p2", "lemma13", "phases"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		out = append(out, e)
	}
	return out
}

// The tentpole's contract test, in the table/worker-invariance family:
// for every registry experiment, (a) a run interrupted at a randomized
// mid-point and resumed from its checkpoint and (b) a 2-way
// point-sharded run merged from its shard journals must both produce
// Result JSON and tables byte-identical to a plain uninterrupted run.
func TestDurableRunEquivalenceAllExperiments(t *testing.T) {
	cfg := ExpConfig{Seed: 2012, Trials: 2}
	for i, e := range durableExperiments(t) {
		e, i := e, i
		t.Run(e.Name, func(t *testing.T) {
			clean, err := e.Run(context.Background(), cfg, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cleanJSON, cleanTable := resultBytes(t, clean)

			// (a) Interrupt at a randomized mid-point, then resume.
			plan, _, err := e.Plan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			units := plan.UnitCount()
			rnd := rand.New(rand.NewSource(int64(1009*i + 7)))
			k := 1 + rnd.Intn(units)
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err = e.Run(ctx, cfg, RunOptions{
				Checkpoint: &Checkpoint{Dir: dir},
				Progress: func(done, total int) {
					if done >= k {
						cancel()
					}
				},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run (cancel after %d/%d units) returned %v, want context.Canceled", k, units, err)
			}
			resumed, err := e.Run(context.Background(), cfg, RunOptions{Checkpoint: &Checkpoint{Dir: dir, Resume: true}})
			if err != nil {
				t.Fatalf("resume after %d/%d units: %v", k, units, err)
			}
			if j, tb := resultBytes(t, resumed); j != cleanJSON || tb != cleanTable {
				t.Errorf("resumed run differs from clean run (interrupted after %d/%d units):\n--- clean ---\n%s--- resumed ---\n%s",
					k, units, cleanTable, tb)
			}

			// (b) 2-way point-level shard, then merge.
			sdirs := []string{t.TempDir(), t.TempDir()}
			for s := range sdirs {
				err := e.RunShard(context.Background(), cfg, Shard{Index: s, Count: 2},
					RunOptions{Checkpoint: &Checkpoint{Dir: sdirs[s]}})
				if err != nil {
					t.Fatalf("shard %d/2: %v", s, err)
				}
			}
			merged, err := MergeShards(context.Background(), e, cfg, sdirs, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if j, tb := resultBytes(t, merged); j != cleanJSON || tb != cleanTable {
				t.Errorf("merged shards differ from clean run:\n--- clean ---\n%s--- merged ---\n%s", cleanTable, tb)
			}
		})
	}
}

// Checkpoints must be workers-independent, like the tables: a journal
// written at Workers=1 resumes correctly at Workers=8 and vice versa.
func TestCheckpointWorkersIndependent(t *testing.T) {
	e, ok := Lookup("cor2")
	if !ok {
		t.Fatal("cor2 not registered")
	}
	base := ExpConfig{Seed: 2012, Trials: 3}
	clean, err := e.Run(context.Background(), base, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cleanJSON, cleanTable := resultBytes(t, clean)
	plan, _, err := e.Plan(base)
	if err != nil {
		t.Fatal(err)
	}
	k := plan.UnitCount() / 2
	for _, w := range [][2]int{{1, 8}, {8, 1}} {
		writeCfg, resumeCfg := base, base
		writeCfg.Workers, resumeCfg.Workers = w[0], w[1]
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		_, err := e.Run(ctx, writeCfg, RunOptions{
			Checkpoint: &Checkpoint{Dir: dir},
			Progress: func(done, total int) {
				if done >= k {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d interrupted run returned %v", w[0], err)
		}
		resumed, err := e.Run(context.Background(), resumeCfg, RunOptions{Checkpoint: &Checkpoint{Dir: dir, Resume: true}})
		if err != nil {
			t.Fatalf("resume at workers=%d of a workers=%d journal: %v", w[1], w[0], err)
		}
		if j, tb := resultBytes(t, resumed); j != cleanJSON || tb != cleanTable {
			t.Errorf("workers=%d journal resumed at workers=%d differs from clean run:\n--- clean ---\n%s--- resumed ---\n%s",
				w[0], w[1], cleanTable, tb)
		}
	}
}

// writeCompleteJournal runs eq3 to completion with a checkpoint and
// returns the experiment, config and journal directory — the seed
// material of the corruption-rejection tests.
func writeCompleteJournal(t *testing.T) (Experiment, ExpConfig, string) {
	t.Helper()
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	cfg := ExpConfig{Seed: 11, Trials: 1}
	dir := t.TempDir()
	if _, err := e.Run(context.Background(), cfg, RunOptions{Checkpoint: &Checkpoint{Dir: dir}}); err != nil {
		t.Fatal(err)
	}
	return e, cfg, dir
}

// copyJournal clones a checkpoint directory so each corruption case
// starts from a pristine journal.
func copyJournal(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// segmentsIn lists the segment files of a checkpoint directory.
func segmentsIn(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range entries {
		if isSegment(ent.Name()) {
			out = append(out, filepath.Join(dir, ent.Name()))
		}
	}
	return out
}

// segmentRecords decodes one segment file's records in file order.
func segmentRecords(t *testing.T, path string) []UnitRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []UnitRecord
	if err := readSegment(data, collectRecords(&recs)); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return recs
}

// frameRecords encodes records as a segment body.
func frameRecords(t *testing.T, recs []UnitRecord) []byte {
	t.Helper()
	var out []byte
	for i := range recs {
		var err error
		if out, err = appendFrame(out, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// editSegments rewrites every segment of a checkpoint directory with
// edit applied to its records, framed as the writer frames them.
func editSegments(t *testing.T, dir string, edit func([]UnitRecord) []UnitRecord) {
	t.Helper()
	for _, path := range segmentsIn(t, dir) {
		if err := os.WriteFile(path, frameRecords(t, edit(segmentRecords(t, path))), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dropRecords removes the records of the given units from a checkpoint
// directory's segments: the partial journal of a run that stopped
// before journaling them.
func dropRecords(t *testing.T, dir string, units ...int) {
	t.Helper()
	editSegments(t, dir, func(recs []UnitRecord) []UnitRecord {
		return slices.DeleteFunc(recs, func(rec UnitRecord) bool { return slices.Contains(units, rec.Unit) })
	})
}

// journaledUnits counts the distinct units a checkpoint directory's
// segments hold.
func journaledUnits(t *testing.T, dir string) int {
	t.Helper()
	seen := make(map[int]bool)
	for _, path := range segmentsIn(t, dir) {
		for _, rec := range segmentRecords(t, path) {
			seen[rec.Unit] = true
		}
	}
	return len(seen)
}

// soleSegment returns the one non-empty segment of a checkpoint
// directory.
func soleSegment(t *testing.T, dir string) string {
	t.Helper()
	var found []string
	for _, path := range segmentsIn(t, dir) {
		if info, err := os.Stat(path); err != nil {
			t.Fatal(err)
		} else if info.Size() > 0 {
			found = append(found, path)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%s holds %d non-empty segments, want 1", dir, len(found))
	}
	return found[0]
}

// damageLine rewrites line n (1-based) of a segment file through f.
func damageLine(t *testing.T, path string, n int, f func(line []byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	lines[n-1] = f(bytes.Clone(lines[n-1]))
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Corrupted or mismatched checkpoint journals must be rejected with a
// diagnostic naming the file and line, never silently resumed; only a
// segment's torn final line is tolerated, and its unit re-runs.
func TestResumeRejectsDamagedOrMismatchedJournals(t *testing.T) {
	e, cfg, pristine := writeCompleteJournal(t)
	clean, err := e.Run(context.Background(), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cleanJSON, cleanTable := resultBytes(t, clean)

	// The pristine journal itself resumes cleanly.
	if _, err := e.Run(context.Background(), cfg, RunOptions{Checkpoint: &Checkpoint{Dir: copyJournal(t, pristine), Resume: true}}); err != nil {
		t.Fatalf("pristine journal did not resume: %v", err)
	}
	// A fresh (non-resume) run must refuse an existing journal.
	if _, err := e.Run(context.Background(), cfg, RunOptions{Checkpoint: &Checkpoint{Dir: pristine}}); err == nil ||
		!strings.Contains(err.Error(), "already holds a journal") {
		t.Fatalf("fresh run over an existing journal: %v", err)
	}
	if n := len(segmentRecords(t, soleSegment(t, pristine))); n < 3 {
		t.Fatalf("journal holds %d records, the damage cases need 3", n)
	}

	// A torn final line — cut short before its newline, or failing its
	// checksum — was never durable: the resume re-runs its unit and is
	// byte-identical to a clean run.
	for _, torn := range []struct {
		name   string
		damage func(line []byte) []byte
	}{
		{"torn final line", func(line []byte) []byte { return line[:len(line)/2] }},
		{"bad checksum on the final line", func(line []byte) []byte { line[len(line)-3] ^= 0x20; return line }},
	} {
		t.Run(torn.name, func(t *testing.T) {
			dir := copyJournal(t, pristine)
			seg := soleSegment(t, dir)
			n := len(segmentRecords(t, seg))
			damageLine(t, seg, n, torn.damage)
			if got := len(segmentRecords(t, seg)); got != n-1 {
				t.Fatalf("damaged segment reads %d records, want %d", got, n-1)
			}
			var ran int
			res, err := e.Run(context.Background(), cfg, RunOptions{
				Checkpoint: &Checkpoint{Dir: dir, Resume: true},
				Progress:   func(done, _ int) { ran = done },
			})
			if err != nil {
				t.Fatal(err)
			}
			if ran != 1 {
				t.Errorf("resume re-ran %d units, want the torn one", ran)
			}
			if j, tb := resultBytes(t, res); j != cleanJSON || tb != cleanTable {
				t.Errorf("resume over a torn final line differs from the clean run:\n--- clean ---\n%s--- resumed ---\n%s", cleanTable, tb)
			}
		})
	}

	// reframe rewrites a line's record through f under a valid frame.
	reframe := func(f func(*UnitRecord)) func(line []byte) []byte {
		return func(line []byte) []byte {
			var recs []UnitRecord
			if err := readSegment(line, collectRecords(&recs)); err != nil || len(recs) != 1 {
				t.Fatalf("line %q: %v", line, err)
			}
			f(&recs[0])
			return frameRecords(t, recs)
		}
	}
	cases := []struct {
		name    string
		cfg     ExpConfig
		corrupt func(dir string)
		wantErr string
	}{
		{
			name: "truncated manifest",
			corrupt: func(dir string) {
				path := filepath.Join(dir, manifestFile)
				data, _ := os.ReadFile(path)
				os.WriteFile(path, data[:len(data)/2], 0o644)
			},
			wantErr: "manifest",
		},
		{
			name: "manifest trailing garbage",
			corrupt: func(dir string) {
				path := filepath.Join(dir, manifestFile)
				data, _ := os.ReadFile(path)
				os.WriteFile(path, append(data, "{}"...), 0o644)
			},
			wantErr: "trailing data",
		},
		{
			name: "manifest wrong version",
			corrupt: func(dir string) {
				path := filepath.Join(dir, manifestFile)
				data, _ := os.ReadFile(path)
				os.WriteFile(path, bytes.Replace(data, []byte(`"version": 2`), []byte(`"version": 99`), 1), 0o644)
			},
			wantErr: "version",
		},
		{
			name:    "mismatched master seed",
			cfg:     ExpConfig{Seed: 12, Trials: 1},
			corrupt: func(string) {},
			wantErr: "master seed",
		},
		{
			name:    "mismatched trials",
			cfg:     ExpConfig{Seed: 11, Trials: 4},
			corrupt: func(string) {},
			wantErr: "trials",
		},
		{
			name: "record truncated before the last line",
			corrupt: func(dir string) {
				damageLine(t, soleSegment(t, dir), 1, func(line []byte) []byte {
					return append(line[:len(line)/2], '\n')
				})
			},
			wantErr: ".log line 1: frame says",
		},
		{
			name: "flipped byte before the last line",
			corrupt: func(dir string) {
				damageLine(t, soleSegment(t, dir), 2, func(line []byte) []byte {
					line[len(line)/2] ^= 0x01
					return line
				})
			},
			wantErr: ".log line 2: checksum mismatch",
		},
		{
			name: "bad checksum before the last line",
			corrupt: func(dir string) {
				damageLine(t, soleSegment(t, dir), 1, func(line []byte) []byte {
					copy(line[9:17], "00000000")
					return line
				})
			},
			wantErr: ".log line 1: checksum mismatch",
		},
		{
			name: "record relabelled to another unit",
			corrupt: func(dir string) {
				damageLine(t, soleSegment(t, dir), 1, reframe(func(rec *UnitRecord) { rec.Unit = 1 - min(rec.Unit, 1) }))
			},
			wantErr: "the plan's unit",
		},
		{
			name: "record beyond the plan",
			corrupt: func(dir string) {
				seg := soleSegment(t, dir)
				f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				f.Write(frameRecords(t, []UnitRecord{{Unit: 999, Point: "nope", Trial: 0}}))
			},
			wantErr: "outside the plan",
		},
		{
			name: "two segments disagree on a unit",
			corrupt: func(dir string) {
				recs := segmentRecords(t, soleSegment(t, dir))
				recs[0].Arms[0].Vertex++
				other := filepath.Join(dir, segmentPrefix+"other"+segmentSuffix)
				os.WriteFile(other, frameRecords(t, recs[:1]), 0o644)
			},
			wantErr: "segments disagree on unit",
		},
		{
			name: "format version 1 directory",
			corrupt: func(dir string) {
				path := filepath.Join(dir, manifestFile)
				data, _ := os.ReadFile(path)
				os.WriteFile(path, bytes.Replace(data, []byte(`"version": 2`), []byte(`"version": 1`), 1), 0o644)
				os.Remove(soleSegment(t, dir))
				os.WriteFile(filepath.Join(dir, "unit-00000000.json"), []byte(`{"unit":0,"point":"p","trial":0}`+"\n"), 0o644)
			},
			wantErr: "format version 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyJournal(t, pristine)
			tc.corrupt(dir)
			cfg := cfg
			if tc.cfg != (ExpConfig{}) {
				cfg = tc.cfg
			}
			_, err := e.Run(context.Background(), cfg, RunOptions{Checkpoint: &Checkpoint{Dir: dir, Resume: true}})
			if err == nil {
				t.Fatal("damaged journal was silently resumed")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("diagnostic %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// A directory holding unit records but no manifest is the debris of an
// older journal (e.g. a hand-deleted manifest after a mismatch
// refusal). Starting a fresh journal over it would let a later resume
// adopt the stale records — segments carry no seed of their own — so
// it must be refused, with or without Resume.
func TestFreshJournalRefusesManifestlessUnitDebris(t *testing.T) {
	e, cfg, pristine := writeCompleteJournal(t)
	for _, resume := range []bool{false, true} {
		dir := copyJournal(t, pristine)
		if err := os.Remove(filepath.Join(dir, manifestFile)); err != nil {
			t.Fatal(err)
		}
		_, err := e.Run(context.Background(), cfg, RunOptions{Checkpoint: &Checkpoint{Dir: dir, Resume: resume}})
		if err == nil || !strings.Contains(err.Error(), "no manifest") {
			t.Errorf("resume=%v over manifest-less unit debris: %v", resume, err)
		}
	}
}

// Resuming an empty directory is a fresh start, not an error: there is
// nothing to restore yet (the CLIs rely on this when an earlier
// interrupt never reached an experiment).
func TestResumeEmptyDirStartsFresh(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	cfg := ExpConfig{Seed: 3, Trials: 1}
	dir := filepath.Join(t.TempDir(), "fresh")
	res, err := e.Run(context.Background(), cfg, RunOptions{Checkpoint: &Checkpoint{Dir: dir, Resume: true}})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := e.Run(context.Background(), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := resultBytes(t, clean)
	rj, _ := resultBytes(t, res)
	if cj != rj {
		t.Error("resume-into-empty-dir run differs from a plain run")
	}
}

func TestRunShardValidation(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	cfg := ExpConfig{Seed: 1, Trials: 1}
	if err := e.RunShard(context.Background(), cfg, Shard{}, RunOptions{Checkpoint: &Checkpoint{Dir: t.TempDir()}}); err == nil {
		t.Error("RunShard accepted the zero shard")
	}
	if err := e.RunShard(context.Background(), cfg, Shard{Index: 0, Count: 2}, RunOptions{}); err == nil {
		t.Error("RunShard accepted a run without a checkpoint journal")
	}
	if err := e.RunShard(context.Background(), cfg, Shard{Index: 5, Count: 2}, RunOptions{Checkpoint: &Checkpoint{Dir: t.TempDir()}}); err == nil {
		t.Error("RunShard accepted an out-of-range shard")
	}
}

// MergeShards must refuse journals that do not cover the full unit
// space, rather than aggregating a partial result.
func TestMergeShardsRejectsIncompleteCoverage(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	cfg := ExpConfig{Seed: 5, Trials: 2}
	dir := t.TempDir()
	if err := e.RunShard(context.Background(), cfg, Shard{Index: 0, Count: 2},
		RunOptions{Checkpoint: &Checkpoint{Dir: dir}}); err != nil {
		t.Fatal(err)
	}
	_, err := MergeShards(context.Background(), e, cfg, []string{dir}, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "first missing") {
		t.Errorf("merge of one of two shards: %v", err)
	}
	if _, err := MergeShards(context.Background(), e, cfg, nil, RunOptions{}); err == nil {
		t.Error("merge of zero directories succeeded")
	}
}

// validManifestBytes marshals a real plan's manifest — the fuzz seeds'
// well-formed starting point.
func validManifestBytes(tb testing.TB) []byte {
	e, ok := Lookup("eq3")
	if !ok {
		tb.Fatal("eq3 not registered")
	}
	plan, _, err := e.Plan(ExpConfig{Seed: 2012, Trials: 2})
	if err != nil {
		tb.Fatal(err)
	}
	m := plan.manifest(plan.Config.withDefaults(), &Checkpoint{Name: e.Name, Salt: e.Salt, Scale: 1})
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return append(data, '\n')
}

// FuzzReadCheckpointManifest: a manifest reader that panics, or accepts
// a document that fails its own shape check, would let a corrupted
// journal slip into a resume. The checked-in seed corpus
// (testdata/fuzz) regression-tests the truncation/corruption/mismatch
// cases on every plain `go test` run.
func FuzzReadCheckpointManifest(f *testing.F) {
	valid := validManifestBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                                    // truncated
	f.Add(append(append([]byte{}, valid...), '{'))                                 // trailing garbage
	f.Add(bytes.Replace(valid, []byte(`"version": 2`), []byte(`"version": 1`), 1)) // a version-1 journal
	f.Add(bytes.Replace(valid, []byte(`"trials": 2`), []byte(`"trials": 0`), 1))
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte(""))
	f.Add([]byte(`{"version":1,"seed":2012,"trials":2,"kind":1,"points":[{"key":"p","salt":9,"trials":2,"arms":["a"]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadCheckpointManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.checkShape(); err != nil {
			t.Fatalf("accepted manifest fails its own shape check: %v", err)
		}
		// Accepted manifests must re-encode and re-read to the same value.
		re, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		if _, err := ReadCheckpointManifest(bytes.NewReader(re)); err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
	})
}

// collectRecords returns a readSegment visitor appending to *recs.
func collectRecords(recs *[]UnitRecord) func(*UnitRecord) error {
	return func(rec *UnitRecord) error {
		*recs = append(*recs, *rec)
		return nil
	}
}

// FuzzReadJournalSegment: segments are a trust boundary like the
// manifest. A segment reader that panics, or accepts a damaged line
// anywhere but at the end, would let a corrupted journal slip into a
// resume. Every accepted segment must re-frame to bytes that read back
// to the same records, and every prefix of it — the file a crash
// mid-write leaves — must read as a prefix of its records.
func FuzzReadJournalSegment(f *testing.F) {
	valid, err := appendFrame(nil, &UnitRecord{Unit: 0, Point: "eq3 n=200", Trial: 0, Arms: []Measurement{{Vertex: 412, Edge: 1033}}})
	if err != nil {
		f.Fatal(err)
	}
	valid, err = appendFrame(valid, &UnitRecord{Unit: 1, Point: "phases n=200", Trial: 1, Arms: []Measurement{{Vertex: 1, Extra: []float64{0.5, -2}}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])             // final newline lost
	f.Add(valid[:len(valid)/2])             // torn mid-record
	f.Add(append(bytes.Clone(valid), '\n')) // empty final line
	flipped := bytes.Clone(valid)
	flipped[30] ^= 0x01
	f.Add(flipped) // flipped byte in the first of two lines
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Add([]byte("00000002 00000000 {}\n00000002 00000000 {}\n"))
	f.Add([]byte("00000002 297bd0aa {}\n")) // a valid frame around an empty record
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []UnitRecord
		if readSegment(data, collectRecords(&recs)) != nil {
			return
		}
		same := func(got []UnitRecord, n int) bool {
			if len(got) != n {
				return false
			}
			for i := range got {
				if !unitRecordsEqual(got[i], recs[i]) {
					return false
				}
			}
			return true
		}
		var again []UnitRecord
		if err := readSegment(frameRecords(t, recs), collectRecords(&again)); err != nil || !same(again, len(recs)) {
			t.Fatalf("re-framed records read back as %v (%v), want %v", again, err, recs)
		}
		for _, cut := range []int{len(data) / 3, len(data) / 2, len(data) - 1} {
			if cut < 0 {
				continue
			}
			var prefix []UnitRecord
			if err := readSegment(data[:cut], collectRecords(&prefix)); err != nil || len(prefix) > len(recs) || !same(prefix, len(prefix)) {
				t.Fatalf("%d-byte prefix of an accepted segment read as %v (%v), want a prefix of %v", cut, prefix, err, recs)
			}
		}
	})
}

// Overlapping shard journals are the normal case for the distributed
// coordinator (a lease expires mid-block and the block is re-run by
// another worker), so MergeShards must stitch duplicate units cleanly —
// the seed-derivation contract makes recomputed records identical — and
// must reject a genuine conflict with a diagnostic naming the unit: a
// disagreement means the journals came from different code or a
// corrupted record, and aggregating either silently would poison the
// tables.
func TestMergeShardsDuplicateAndConflictingUnits(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	cfg := ExpConfig{Seed: 17, Trials: 2}
	clean, err := e.Run(context.Background(), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cleanJSON, cleanTable := resultBytes(t, clean)

	// full covers every unit; firstHalf re-runs the first half of them:
	// together they overlap on half the unit space.
	full, firstHalf := t.TempDir(), t.TempDir()
	if err := e.RunShard(context.Background(), cfg, Shard{Index: 0, Count: 1},
		RunOptions{Checkpoint: &Checkpoint{Dir: full}}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunShard(context.Background(), cfg, Shard{Index: 0, Count: 2},
		RunOptions{Checkpoint: &Checkpoint{Dir: firstHalf}}); err != nil {
		t.Fatal(err)
	}
	merged, err := MergeShards(context.Background(), e, cfg, []string{full, firstHalf}, RunOptions{})
	if err != nil {
		t.Fatalf("merge with duplicate units: %v", err)
	}
	if j, tb := resultBytes(t, merged); j != cleanJSON || tb != cleanTable {
		t.Errorf("merge with duplicate units differs from clean run:\n--- clean ---\n%s--- merged ---\n%s", cleanTable, tb)
	}

	// Tamper with one duplicated record: the merge must refuse, naming
	// the unit it caught.
	var rec UnitRecord
	editSegments(t, firstHalf, func(recs []UnitRecord) []UnitRecord {
		if len(recs) == 0 || len(recs[0].Arms) == 0 {
			t.Fatal("overlap journal holds no record with arms to tamper with")
		}
		recs[0].Arms[0].Vertex++
		rec = recs[0]
		return recs
	})
	_, err = MergeShards(context.Background(), e, cfg, []string{full, firstHalf}, RunOptions{})
	if err == nil {
		t.Fatal("merge aggregated conflicting duplicate records")
	}
	want := fmt.Sprintf("disagree on unit %d", rec.Unit)
	if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), rec.Point) {
		t.Errorf("conflict diagnostic %q does not name the unit (%q and point %q)", err, want, rec.Point)
	}
}

// ShardCoverage is the distributed coordinator's recovery and
// completion-verification primitive: it must report a missing journal
// as zero-of-total (not an error), count partial and complete journals
// exactly, window the count to the shard, and surface corruption as an
// error.
func TestShardCoverage(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	cfg := ExpConfig{Seed: 23, Trials: 2, Workers: 1}
	total, err := e.UnitCount(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 1 {
		t.Fatalf("eq3 unit space too small for the test: %d", total)
	}

	// Absent journal: zero done, not an error.
	done, got, err := ShardCoverage(e, cfg, filepath.Join(t.TempDir(), "never"), Shard{Index: 0, Count: 1})
	if err != nil || done != 0 || got != total {
		t.Fatalf("coverage of missing dir = (%d, %d, %v), want (0, %d, nil)", done, got, err, total)
	}

	// Interrupted journal: counts only what was journaled.
	partial := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = e.Run(ctx, cfg, RunOptions{
		Checkpoint: &Checkpoint{Dir: partial},
		Progress: func(d, _ int) {
			if d >= 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}
	done, _, err = ShardCoverage(e, cfg, partial, Shard{Index: 0, Count: 1})
	if err != nil || done == 0 || done == total {
		t.Fatalf("coverage of interrupted journal = (%d of %d, %v), want strictly partial", done, total, err)
	}

	// Complete journal: full coverage, and the two halves of a 2-shard
	// window partition it.
	e2, cfg2, complete := writeCompleteJournal(t)
	ctotal, err := e2.UnitCount(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	done, _, err = ShardCoverage(e2, cfg2, complete, Shard{Index: 0, Count: 1})
	if err != nil || done != ctotal {
		t.Fatalf("coverage of complete journal = (%d, %v), want %d", done, err, ctotal)
	}
	var sum int
	for s := 0; s < 2; s++ {
		d, windowed, err := ShardCoverage(e2, cfg2, complete, Shard{Index: s, Count: 2})
		if err != nil {
			t.Fatal(err)
		}
		if d != windowed {
			t.Errorf("shard %d/2 of complete journal: %d done of %d", s, d, windowed)
		}
		sum += d
	}
	if sum != ctotal {
		t.Errorf("2-shard windows sum to %d, want %d", sum, ctotal)
	}

	// Corruption is an error, not a zero count.
	damaged := copyJournal(t, complete)
	path := filepath.Join(damaged, manifestFile)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ShardCoverage(e2, cfg2, damaged, Shard{Index: 0, Count: 1}); err == nil {
		t.Error("coverage of corrupt journal reported no error")
	}
}
