package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// This file is the durable-run layer: a checkpoint journal that lets a
// long sweep survive interruption (Checkpoint + Resume) and lets one
// experiment span machines below the experiment level (RunShard over
// PlanShard blocks + MergeShards). The journal's unit of durability is
// the canonical (point, trial) unit: every completed unit is written as
// its own JSON file via write-temp+fsync+rename, so readers and crash
// recovery only ever see complete records, and a killed run loses at
// most its in-flight units. The manifest pins the identity of the run
// the journal belongs to — master seed, registry name, salt namespace,
// scale, trials, RNG kind, step budget, and the full point/arm shape of
// the plan — and is fsync'd before any unit is journaled. Workers is
// deliberately absent everywhere: like the tables, checkpoints are
// workers-independent, so a journal written at Workers=1 resumes at
// Workers=8 and vice versa. Resuming validates the manifest against the
// current plan and re-feeds only the missing units; truncated,
// corrupted or mismatched journals are rejected with a diagnostic,
// never silently resumed.

// Checkpoint configures the durable-run journal of RunContext /
// RunShard (via RunOptions.Checkpoint).
type Checkpoint struct {
	// Dir is the journal directory: one manifest plus one JSON file per
	// completed (point, trial) unit. Use one directory per (experiment,
	// configuration, shard) — the CLIs key subdirectories by experiment
	// name under their -checkpoint flag.
	Dir string
	// Name, Salt and Scale stamp the manifest with the registry
	// identity of the run. Experiment.Run and Experiment.RunShard fill
	// them from the registry entry; bare SweepPlan users may leave them
	// zero.
	Name  string
	Salt  uint64
	Scale int
	// Resume restores the completed units of an existing journal
	// (validating its manifest against the current plan first) and
	// re-feeds only the missing units. Without Resume, an existing
	// journal in Dir is an error — a fresh run never silently mixes
	// with or overwrites an old journal. Resuming an empty Dir starts a
	// fresh journal: there is nothing to restore yet.
	Resume bool
}

// manifestVersion is the checkpoint format version; bump on any change
// to the manifest or unit-record encoding.
const manifestVersion = 1

// manifestFile is the manifest's filename inside a checkpoint dir.
const manifestFile = "manifest.json"

// CheckpointManifest pins the identity of the run a checkpoint journal
// belongs to: a format version plus the run's canonical RunKey.
// Everything that changes the derived seeds or the unit space is in the
// key; Workers is deliberately absent (journals are
// workers-independent, like the tables). The embedding keeps the
// manifest's JSON field-for-field identical to pre-RunKey journals.
type CheckpointManifest struct {
	Version int `json:"version"`
	RunKey
}

// ManifestPoint is one PointSpec's identity inside a manifest.
type ManifestPoint struct {
	Key    string   `json:"key"`
	Salt   uint64   `json:"salt"`
	Trials int      `json:"trials"`
	Arms   []string `json:"arms,omitempty"`
}

// UnitRecord is one completed (point, trial) unit as journaled in a
// checkpoint directory: the unit's canonical index, its identity for
// validation, and one Measurement per arm in arm order. Restoring a
// record reproduces the unit exactly — measurements (Extra channels
// included) are injected as-is, and at a KeepRep point the trial-0
// representative graph is re-derived from the unit's graph seed.
type UnitRecord struct {
	Unit  int           `json:"unit"`
	Point string        `json:"point"`
	Trial int           `json:"trial"`
	Arms  []Measurement `json:"arms,omitempty"`
}

// manifest builds the plan's manifest under cfg (defaults applied) with
// ck's registry identity stamps.
func (pl *SweepPlan) manifest(cfg Config, ck *Checkpoint) *CheckpointManifest {
	return &CheckpointManifest{
		Version: manifestVersion,
		RunKey:  pl.runKey(cfg, ck.Name, ck.Salt, ck.Scale),
	}
}

// checkShape rejects manifests that could not have been written by
// writeManifest, whatever plan they came from.
func (m *CheckpointManifest) checkShape() error {
	if m.Version != manifestVersion {
		return fmt.Errorf("format version %d, this binary reads version %d", m.Version, manifestVersion)
	}
	return m.RunKey.checkShape()
}

// matches reports the first difference between a journal's manifest m
// and the manifest the current plan would write — the refusal
// diagnostic of every resume/merge validation.
func (m *CheckpointManifest) matches(want *CheckpointManifest) error {
	if m.Version != want.Version {
		return fmt.Errorf("format version %d vs %d", m.Version, want.Version)
	}
	return m.RunKey.Matches(&want.RunKey)
}

// ReadCheckpointManifest parses and shape-checks a checkpoint manifest.
// It is strict — unknown fields, trailing bytes and implausible shapes
// are all errors — because a truncated or corrupted manifest must be
// rejected with a diagnostic, never silently resumed.
func ReadCheckpointManifest(r io.Reader) (*CheckpointManifest, error) {
	var m CheckpointManifest
	if err := decodeStrict(r, &m); err != nil {
		return nil, fmt.Errorf("checkpoint manifest: %w", err)
	}
	if err := m.checkShape(); err != nil {
		return nil, fmt.Errorf("checkpoint manifest: %w", err)
	}
	return &m, nil
}

// readUnitRecord parses one journaled unit with the same strictness as
// ReadCheckpointManifest; plan-level validation happens in loadUnits.
func readUnitRecord(r io.Reader) (*UnitRecord, error) {
	var rec UnitRecord
	if err := decodeStrict(r, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// decodeStrict decodes exactly one JSON document into v, rejecting
// unknown fields and trailing data.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// journal appends completed units to a checkpoint directory. Writes are
// per-unit-atomic (unique temp file, fsync, rename) and lock-free:
// every unit owns its filename, so writes never collide.
type journal struct{ dir string }

// unitFile names unit u's journal file. The fixed-width decimal keeps
// directory listings in canonical unit order.
func unitFile(u int) string { return fmt.Sprintf("unit-%08d.json", u) }

// unitFileIndex parses a journal filename back to its unit index.
func unitFileIndex(name string) (int, bool) {
	body, ok := strings.CutPrefix(name, "unit-")
	if !ok {
		return 0, false
	}
	body, ok = strings.CutSuffix(body, ".json")
	if !ok {
		return 0, false
	}
	u, err := strconv.Atoi(body)
	if err != nil || u < 0 {
		return 0, false
	}
	return u, true
}

func (j *journal) writeUnit(rec UnitRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return AtomicWrite(j.dir, unitFile(rec.Unit), append(data, '\n'), false)
}

// journalWriter makes completed units durable on one goroutine of its
// own, so the sweep workers hand a record over and go on to their next
// unit instead of waiting on its fsync. The first failed write is kept,
// naming its unit, and calls stop so the run schedules no further
// units; records queued after it are drained without being written.
type journalWriter struct {
	recs chan UnitRecord
	done chan struct{}
	err  error // first write error; read only after done is closed
}

// startJournalWriter starts the writer goroutine. capacity must be at
// least the number of records the run will submit, so submit never
// blocks a worker.
func startJournalWriter(capacity int, write func(UnitRecord) error, stop context.CancelFunc) *journalWriter {
	w := &journalWriter{recs: make(chan UnitRecord, capacity), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for rec := range w.recs {
			if w.err != nil {
				continue
			}
			if err := write(rec); err != nil {
				w.err = fmt.Errorf("sim: point %q trial %d: journal: %w", rec.Point, rec.Trial, err)
				stop()
			}
		}
	}()
	return w
}

// submit queues rec for writing. Call it only before close.
func (w *journalWriter) submit(rec UnitRecord) { w.recs <- rec }

// close waits until every submitted record is written (or drained after
// a failure), the goroutine has finished, and returns the first write
// error. Call it once, after the last submit.
func (w *journalWriter) close() error {
	close(w.recs)
	<-w.done
	return w.err
}

// AtomicWrite writes name into dir via a hidden unique temp file
// ("."+name+".tmp-…"), fsync and rename, so a reader (or crash
// recovery) only ever sees a complete file; a crash leaves at most some
// temp debris. syncDir additionally fsyncs the directory entry: the
// manifest, which anchors the whole journal, and reprod's disk-tier
// spills use it; unit records do not.
func AtomicWrite(dir, name string, data []byte, syncDir bool) error {
	f, err := os.CreateTemp(dir, "."+name+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}
	if syncDir {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		defer d.Close()
		return d.Sync()
	}
	return nil
}

// openCheckpoint opens ck.Dir for the plan: on resume it validates the
// existing manifest against the plan and loads the completed units;
// otherwise it refuses an existing journal and starts a fresh one
// (manifest written and fsync'd before any unit). It returns the
// restored units (nil on a fresh journal) and the journal to append to.
func openCheckpoint(pl *SweepPlan, cfg Config, ck *Checkpoint) (map[int]UnitRecord, *journal, error) {
	if ck.Dir == "" {
		return nil, nil, errors.New("sim: checkpoint: empty Dir")
	}
	want := pl.manifest(cfg, ck)
	path := filepath.Join(ck.Dir, manifestFile)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if !ck.Resume {
			return nil, nil, fmt.Errorf("sim: checkpoint %s already holds a journal; resume it (-resume) or use a fresh directory", ck.Dir)
		}
		got, err := ReadCheckpointManifest(bytes.NewReader(data))
		if err != nil {
			return nil, nil, fmt.Errorf("sim: %s: %w — refusing to resume", path, err)
		}
		if err := got.matches(want); err != nil {
			return nil, nil, fmt.Errorf("sim: checkpoint %s does not match the current run: %w — refusing to resume", ck.Dir, err)
		}
		restored, err := loadUnits(ck.Dir, pl, cfg)
		if err != nil {
			return nil, nil, err
		}
		return restored, &journal{dir: ck.Dir}, nil
	case errors.Is(err, os.ErrNotExist):
		// Fresh journal. Resume tolerates a missing journal — there is
		// nothing to restore, so the run starts from scratch (the CLIs
		// rely on this when a multi-experiment run was interrupted
		// before reaching an experiment).
		if err := os.MkdirAll(ck.Dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("sim: checkpoint: %w", err)
		}
		// A manifest-less directory that already holds unit records is
		// the debris of an older journal (e.g. a hand-deleted manifest
		// after a mismatch refusal). Writing a new manifest over it
		// would let a later resume adopt the stale records — they carry
		// no seed of their own — so refuse instead of mixing journals.
		if stale, err := hasUnitFiles(ck.Dir); err != nil {
			return nil, nil, fmt.Errorf("sim: checkpoint: %w", err)
		} else if stale {
			return nil, nil, fmt.Errorf("sim: checkpoint %s holds unit records but no manifest; refusing to start a journal over debris of an older one — use a fresh directory", ck.Dir)
		}
		mdata, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return nil, nil, err
		}
		if err := AtomicWrite(ck.Dir, manifestFile, append(mdata, '\n'), true); err != nil {
			return nil, nil, fmt.Errorf("sim: checkpoint manifest: %w", err)
		}
		return nil, &journal{dir: ck.Dir}, nil
	default:
		return nil, nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
}

// hasUnitFiles reports whether dir already holds any unit records.
func hasUnitFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, ent := range entries {
		if _, ok := unitFileIndex(ent.Name()); ok {
			return true, nil
		}
	}
	return false, nil
}

// loadUnits reads every journaled unit in dir and validates it against
// the plan's canonical unit space. Any unreadable, corrupt or
// mismatched record is an error naming the file — a journal that has
// drifted from its manifest must never be silently resumed.
func loadUnits(dir string, pl *SweepPlan, cfg Config) (map[int]UnitRecord, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
	units := pl.unitList(cfg)
	restored := make(map[int]UnitRecord)
	for _, ent := range entries {
		name := ent.Name()
		idx, ok := unitFileIndex(name)
		if !ok {
			continue // manifest, temp files, stray notes
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint: %w — refusing to resume", err)
		}
		rec, err := readUnitRecord(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint unit %s: %w — refusing to resume", path, err)
		}
		if rec.Unit != idx {
			return nil, fmt.Errorf("sim: checkpoint unit %s records unit %d — refusing to resume", path, rec.Unit)
		}
		if rec.Unit >= len(units) {
			return nil, fmt.Errorf("sim: checkpoint unit %s is outside the plan's %d units — refusing to resume", path, len(units))
		}
		un := units[rec.Unit]
		pt := &pl.Points[un.point]
		if rec.Point != pt.Key || rec.Trial != un.trial {
			return nil, fmt.Errorf("sim: checkpoint unit %s is %q trial %d, the plan's unit %d is %q trial %d — refusing to resume",
				path, rec.Point, rec.Trial, rec.Unit, pt.Key, un.trial)
		}
		if len(rec.Arms) != len(pt.Arms) {
			return nil, fmt.Errorf("sim: checkpoint unit %s has %d arm measurements, point %q has %d arms — refusing to resume",
				path, len(rec.Arms), pt.Key, len(pt.Arms))
		}
		restored[rec.Unit] = *rec
	}
	return restored, nil
}

// unitRecordsEqual reports whether two journal records agree exactly
// (measurements compared bit-for-bit — identical derived seeds produce
// identical floats).
func unitRecordsEqual(a, b UnitRecord) bool {
	if a.Unit != b.Unit || a.Point != b.Point || a.Trial != b.Trial || len(a.Arms) != len(b.Arms) {
		return false
	}
	for i := range a.Arms {
		if !a.Arms[i].Equal(b.Arms[i]) {
			return false
		}
	}
	return true
}

// ShardCoverage reports how many of the units of shard's PlanShard
// block of e's plan under cfg are journaled in dir (pass Shard{0, 1}
// for the whole unit space). A directory that does not exist, or holds
// no manifest yet, is simply empty coverage — not an error — so a
// coordinator can probe blocks that were never started. A journal that
// exists but is corrupt, truncated, or belongs to a different run is an
// error with a diagnostic, exactly as resume validation would report
// it: coverage must never be counted from records the run could not
// safely restore. This is the completion check of the distributed
// coordinator (internal/dist): a lease's block is done if and only if
// its journal validates and covers the block.
func ShardCoverage(e Experiment, cfg ExpConfig, dir string, shard Shard) (done, total int, err error) {
	plan, _, err := e.Plan(cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("sim: %s: plan: %w", e.Name, err)
	}
	rcfg := plan.Config.withDefaults()
	lo, hi, err := plan.PlanShard(shard.Index, shard.Count)
	if err != nil {
		return 0, 0, err
	}
	total = hi - lo
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, total, nil
	}
	if err != nil {
		return 0, total, fmt.Errorf("sim: coverage: %w", err)
	}
	got, err := ReadCheckpointManifest(bytes.NewReader(data))
	if err != nil {
		return 0, total, fmt.Errorf("sim: coverage %s: %w", dir, err)
	}
	d := cfg.withDefaults()
	want := plan.manifest(rcfg, &Checkpoint{Name: e.Name, Salt: e.Salt, Scale: d.Scale})
	if err := got.matches(want); err != nil {
		return 0, total, fmt.Errorf("sim: coverage: journal %s does not match the current run: %w", dir, err)
	}
	recs, err := loadUnits(dir, plan, rcfg)
	if err != nil {
		return 0, total, err
	}
	for u := range recs {
		if u >= lo && u < hi {
			done++
		}
	}
	return done, total, nil
}

// MergeShards stitches the journals written by point-sharded runs of
// one experiment (Experiment.RunShard / `sweep -shard i/m@points
// -checkpoint`) into the canonical unsharded Result. Every directory's
// manifest must match the experiment's plan under cfg, overlapping
// records must agree, and together the journals must cover every
// (point, trial) unit. No walks are re-run: measurements come from the
// journals and the representative graphs of KeepRep points are
// re-derived from their seeds, so the merged Result — tables and JSON — is byte-identical to a plain
// unsharded Run at the same configuration.
func MergeShards(ctx context.Context, e Experiment, cfg ExpConfig, dirs []string, opts RunOptions) (*Result, error) {
	if len(dirs) == 0 {
		return nil, errors.New("sim: MergeShards: no shard directories")
	}
	plan, finish, err := e.Plan(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: plan: %w", e.Name, err)
	}
	d := cfg.withDefaults()
	rcfg := plan.Config.withDefaults()
	want := plan.manifest(rcfg, &Checkpoint{Name: e.Name, Salt: e.Salt, Scale: d.Scale})
	merged := make(map[int]UnitRecord)
	for _, dir := range dirs {
		path := filepath.Join(dir, manifestFile)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("sim: merge: %w", err)
		}
		got, err := ReadCheckpointManifest(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("sim: merge %s: %w", path, err)
		}
		if err := got.matches(want); err != nil {
			return nil, fmt.Errorf("sim: merge: shard journal %s does not match the current run: %w", dir, err)
		}
		recs, err := loadUnits(dir, plan, rcfg)
		if err != nil {
			return nil, err
		}
		for u, rec := range recs {
			if prev, dup := merged[u]; dup && !unitRecordsEqual(prev, rec) {
				return nil, fmt.Errorf("sim: merge: shard journals disagree on unit %d (%q trial %d)", u, rec.Point, rec.Trial)
			}
			merged[u] = rec
		}
	}
	if have, total := len(merged), plan.UnitCount(); have != total {
		units := plan.unitList(rcfg)
		for u, un := range units {
			if _, ok := merged[u]; !ok {
				return nil, fmt.Errorf("sim: merge: shard journals cover %d of %d units; first missing is unit %d (%q trial %d)",
					have, total, u, plan.Points[un.point].Key, un.trial)
			}
		}
	}
	opts.Checkpoint = nil // merging reads journals, it never writes one
	points, err := plan.runSpan(ctx, opts, Shard{}, merged)
	if err != nil {
		return nil, err
	}
	res, err := finish(points)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", e.Name, err)
	}
	res.Name, res.Seed, res.Trials, res.Scale = e.Name, d.Seed, d.Trials, d.Scale
	return res, nil
}
