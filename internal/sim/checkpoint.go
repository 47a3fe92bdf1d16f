package sim

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
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
// the canonical (point, trial) unit. A journal directory holds one
// manifest and one append-only segment per writer incarnation: every
// run that executes units under the journal (fresh, resumed, or a
// second worker on a reassigned block) creates a segment of its own,
// and a run with nothing left to execute creates none, so no two writers
// ever share a file. A segment line is one unit record framed with its
// length and CRC-32C; the writer group-commits — each batch of queued
// records is one write and one fsync — so a killed run loses at most
// its in-flight and not yet committed units. A killed process can only
// cut its segment short, tearing the final line, whose unit then simply
// re-runs. A power loss during a batch's fsync usually leaves the same
// cut-short tail; the disk need not persist an unsynced write in order,
// though, so it can also leave a damaged line followed by intact ones,
// and that journal is refused like any other damage (safe, but its run
// must start over in a fresh directory). The manifest
// pins the identity of the run the journal belongs to — master seed,
// registry name, salt namespace, scale, trials, RNG kind, step budget,
// and the full point/arm shape of the plan — and is fsync'd before any
// segment exists. Workers is deliberately absent everywhere: like the
// tables, checkpoints are workers-independent, so a journal written at
// Workers=1 resumes at Workers=8 and vice versa. Resuming validates the
// manifest and every record against the current plan and re-feeds only
// the missing units; corrupted or mismatched journals are rejected
// with a diagnostic naming the file and line, never silently resumed.

// Checkpoint configures the durable-run journal of RunContext /
// RunShard (via RunOptions.Checkpoint).
type Checkpoint struct {
	// Dir is the journal directory: one manifest plus one append-only
	// segment (units-<nonce>.log) per run that wrote to it. Use one
	// directory per (experiment, configuration, shard) — the CLIs key
	// subdirectories by experiment name under their -checkpoint flag.
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
	// re-feeds only the missing units, journaling them into a new
	// segment. Without Resume, an existing journal in Dir is an error —
	// a fresh run never silently mixes with or overwrites an old
	// journal. Resuming an empty Dir starts a fresh journal: there is
	// nothing to restore yet.
	Resume bool
}

// manifestVersion is the checkpoint format version; bump on any change
// to the manifest, the segment framing or the unit-record encoding.
// Version 1 journaled each unit as its own unit-NNNNNNNN.json file;
// version 2 appends framed records to per-writer segments.
const manifestVersion = 2

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

// Segment files are named units-<nonce>.log; version-1 journals named
// one file per unit unit-NNNNNNNN.json.
const (
	segmentPrefix = "units-"
	segmentSuffix = ".log"
)

func isSegment(name string) bool {
	return strings.HasPrefix(name, segmentPrefix) && strings.HasSuffix(name, segmentSuffix)
}

func isV1UnitFile(name string) bool {
	return strings.HasPrefix(name, "unit-") && strings.HasSuffix(name, ".json")
}

// A segment line is one framed unit record:
//
//	<length> <crc> <json>\n
//
// where length is the byte length of the record's JSON encoding and crc
// its CRC-32C (Castagnoli), both as 8 lowercase hex digits. encoding/json
// escapes newlines inside strings, so the record never contains one.
const frameHeader = len("00000000 00000000 ")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends rec's framed segment line to dst.
func appendFrame(dst []byte, rec *UnitRecord) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return dst, err
	}
	dst = fmt.Appendf(dst, "%08x %08x ", len(data), crc32.Checksum(data, castagnoli))
	dst = append(dst, data...)
	return append(dst, '\n'), nil
}

// checkFrame verifies one segment line (without its newline) and
// returns the record's JSON.
func checkFrame(line []byte) ([]byte, error) {
	if len(line) < frameHeader || line[8] != ' ' || line[17] != ' ' {
		return nil, errors.New("malformed frame header")
	}
	n, err1 := strconv.ParseUint(string(line[:8]), 16, 32)
	sum, err2 := strconv.ParseUint(string(line[9:17]), 16, 32)
	if err1 != nil || err2 != nil {
		return nil, errors.New("malformed frame header")
	}
	data := line[frameHeader:]
	if uint64(len(data)) != n {
		return nil, fmt.Errorf("frame says %d bytes, record has %d", n, len(data))
	}
	if crc32.Checksum(data, castagnoli) != uint32(sum) {
		return nil, errors.New("checksum mismatch")
	}
	return data, nil
}

// readSegment decodes a segment's records in file order, calling visit
// with each record. Only the final line may be torn — cut short before
// its newline or failing its frame check, as an interrupted write
// leaves it — and is skipped: its unit was never durable, so it
// re-runs. Any other defect, a damaged line before intact ones
// included, and any error from visit, is returned naming the 1-based
// line.
func readSegment(data []byte, visit func(rec *UnitRecord) error) error {
	for line := 1; len(data) > 0; line++ {
		text, rest, complete := bytes.Cut(data, []byte{'\n'})
		body, err := checkFrame(text)
		if !complete || (err != nil && len(rest) == 0) {
			return nil // torn final line
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		var rec UnitRecord
		if err := decodeStrict(bytes.NewReader(body), &rec); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if err := visit(&rec); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		data = rest
	}
	return nil
}

// createSegment creates a new segment in dir under a random name with
// O_EXCL, so it can never be a file another writer holds, and fsyncs
// dir so the segment's entry survives a crash. Only its creator appends
// to it.
func createSegment(dir string) (*os.File, error) {
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, err
	}
	name := segmentPrefix + hex.EncodeToString(nonce[:]) + segmentSuffix
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := fsyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// commitFrames appends a batch of framed records to segment f with one
// write and makes it durable with one fsync.
func commitFrames(f *os.File, frames []byte) error {
	if _, err := f.Write(frames); err != nil {
		return err
	}
	return f.Sync()
}

// journalWriter makes completed units durable on one goroutine of its
// own, so the sweep workers hand a record over and go on to their next
// unit instead of waiting on an fsync. It group-commits: each time it
// wakes it drains every queued record, frames them and commits them as
// one batch. The first failure — a record that cannot be encoded, or a
// failed commit, which names the batch's first unit — is kept and calls
// stop so the run schedules no further units; a failed batch is not
// written, and records queued after it are drained without being
// written.
type journalWriter struct {
	records chan UnitRecord
	done    chan struct{}
	err     error // first failure; read only after done is closed
}

// startJournalWriter starts the writer goroutine. capacity must be at
// least the number of records the run will submit, so submit never
// blocks a worker.
func startJournalWriter(capacity int, commit func(frames []byte) error, stop context.CancelFunc) *journalWriter {
	w := &journalWriter{records: make(chan UnitRecord, capacity), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var batch []UnitRecord
		var buf []byte
		for first := range w.records {
			if w.err != nil {
				continue
			}
			batch = append(batch[:0], first)
		drain:
			for {
				select {
				case rec, ok := <-w.records:
					if !ok {
						break drain
					}
					batch = append(batch, rec)
				default:
					break drain
				}
			}
			if buf, w.err = frameBatch(buf[:0], batch); w.err == nil {
				if err := commit(buf); err != nil {
					what := fmt.Sprintf("point %q trial %d", first.Point, first.Trial)
					if len(batch) > 1 {
						what += fmt.Sprintf(" and %d later units", len(batch)-1)
					}
					w.err = fmt.Errorf("sim: %s: journal: %w", what, err)
				}
			}
			if w.err != nil {
				stop()
			}
		}
	}()
	return w
}

// frameBatch appends the framed segment lines of batch to dst. A record
// that cannot be encoded is an error naming its unit.
func frameBatch(dst []byte, batch []UnitRecord) ([]byte, error) {
	for i := range batch {
		var err error
		if dst, err = appendFrame(dst, &batch[i]); err != nil {
			return dst, fmt.Errorf("sim: point %q trial %d: journal: %w", batch[i].Point, batch[i].Trial, err)
		}
	}
	return dst, nil
}

// submit queues a completed unit's record for the writer. Call it only
// before close.
func (w *journalWriter) submit(rec UnitRecord) { w.records <- rec }

// close waits until every submitted record is committed (or drained
// after a failure), the goroutine has finished, and returns the first
// failure. Call it once, after the last submit.
func (w *journalWriter) close() error {
	close(w.records)
	<-w.done
	return w.err
}

// AtomicWrite writes name into dir via a hidden unique temp file
// ("."+name+".tmp-…"), fsync and rename, so a reader (or crash
// recovery) only ever sees a complete file; a crash leaves at most some
// temp debris. syncDir additionally fsyncs the directory entry: the
// checkpoint manifest, which anchors the whole journal, and reprod's
// disk-tier spills use it.
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
		return fsyncDir(dir)
	}
	return nil
}

// fsyncDir fsyncs a directory, making its entries durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// openCheckpoint opens ck.Dir for the plan: on resume it validates the
// existing journal against the plan and returns its completed units;
// otherwise it refuses an existing journal and starts a fresh one
// (manifest written and fsync'd, so every segment created after it has
// a manifest). The caller creates its own segment only when it has
// units to journal, so a run with nothing left to execute leaves the
// directory as it found it.
func openCheckpoint(pl *SweepPlan, cfg Config, ck *Checkpoint) (map[int]UnitRecord, error) {
	if ck.Dir == "" {
		return nil, errors.New("sim: checkpoint: empty Dir")
	}
	if !ck.Resume {
		if _, err := os.Stat(filepath.Join(ck.Dir, manifestFile)); err == nil {
			return nil, fmt.Errorf("sim: checkpoint %s already holds a journal; resume it (-resume) or use a fresh directory", ck.Dir)
		}
	}
	want := pl.manifest(cfg, ck)
	restored, err := readJournal(ck.Dir, pl, cfg, want)
	switch {
	case err == nil:
		return restored, nil
	case errors.Is(err, os.ErrNotExist):
		// Fresh journal. Resume tolerates a missing journal — there is
		// nothing to restore, so the run starts from scratch (the CLIs
		// rely on this when a multi-experiment run was interrupted
		// before reaching an experiment).
		if err := os.MkdirAll(ck.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("sim: checkpoint: %w", err)
		}
		mdata, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := AtomicWrite(ck.Dir, manifestFile, append(mdata, '\n'), true); err != nil {
			return nil, fmt.Errorf("sim: checkpoint manifest: %w", err)
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
}

// readJournal reads the journal in dir: its manifest must match want,
// and the union of its segments must pass the unit checks against the
// plan — index in range, point key, trial and arm count — with every
// repeated unit recorded identically. An error wrapping os.ErrNotExist
// means dir holds no journal at all. A directory with segments but no
// manifest is the debris of an older journal (for example a
// hand-deleted manifest after a mismatch refusal): starting a fresh
// journal over it would let a later resume adopt records that carry no
// seed of their own, so it is an error, as is a version-1 unit file.
//
// The directory is listed before the manifest is read. Every writer
// creates its segment only after the manifest is durable, so a segment
// in the listing always has a manifest to be read, even when a
// concurrent writer (a reassigned dist block) is starting the journal.
func readJournal(dir string, pl *SweepPlan, cfg Config, want *CheckpointManifest) (map[int]UnitRecord, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segments []string
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case isSegment(name):
			segments = append(segments, name)
		case isV1UnitFile(name):
			return nil, fmt.Errorf("%s is a format version 1 unit file, this binary reads version %d journals — rerun into a fresh directory",
				filepath.Join(dir, name), manifestVersion)
		}
	}
	mpath := filepath.Join(dir, manifestFile)
	data, err := os.ReadFile(mpath)
	if errors.Is(err, os.ErrNotExist) && len(segments) > 0 {
		return nil, fmt.Errorf("%s holds unit records but no manifest; refusing to use debris of an older journal — use a fresh directory", dir)
	}
	if err != nil {
		return nil, err
	}
	got, err := ReadCheckpointManifest(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", mpath, err)
	}
	if err := got.matches(want); err != nil {
		return nil, fmt.Errorf("journal %s does not match the current run: %w", dir, err)
	}
	units := pl.unitList(cfg)
	recs := make(map[int]UnitRecord)
	for _, name := range segments {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		err = readSegment(data, func(rec *UnitRecord) error {
			if err := checkUnit(pl, units, rec); err != nil {
				return err
			}
			if prev, dup := recs[rec.Unit]; dup && !unitRecordsEqual(prev, *rec) {
				return fmt.Errorf("segments disagree on unit %d (%q trial %d)", rec.Unit, rec.Point, rec.Trial)
			}
			recs[rec.Unit] = *rec
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s %w", path, err)
		}
	}
	return recs, nil
}

// checkUnit validates one journaled record against the plan's canonical
// unit space.
func checkUnit(pl *SweepPlan, units []unit, rec *UnitRecord) error {
	if rec.Unit < 0 || rec.Unit >= len(units) {
		return fmt.Errorf("unit %d is outside the plan's %d units", rec.Unit, len(units))
	}
	un := units[rec.Unit]
	pt := &pl.Points[un.point]
	if rec.Point != pt.Key || rec.Trial != un.trial {
		return fmt.Errorf("unit %d is %q trial %d, the plan's unit %d is %q trial %d",
			rec.Unit, rec.Point, rec.Trial, rec.Unit, pt.Key, un.trial)
	}
	if len(rec.Arms) != len(pt.Arms) {
		return fmt.Errorf("unit %d has %d arm measurements, point %q has %d arms",
			rec.Unit, len(rec.Arms), pt.Key, len(pt.Arms))
	}
	return nil
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
// exists but is corrupt or belongs to a different run is an error with
// a diagnostic, exactly as resume validation would report it: coverage
// must never be counted from records the run could not safely restore.
// A torn final segment line is not coverage: its unit re-runs. This is
// the completion check of the distributed coordinator (internal/dist):
// a lease's block is done if and only if its journal validates and
// covers the block.
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
	want := plan.manifest(rcfg, &Checkpoint{Name: e.Name, Salt: e.Salt, Scale: cfg.withDefaults().Scale})
	recs, err := readJournal(dir, plan, rcfg, want)
	if errors.Is(err, os.ErrNotExist) {
		return 0, total, nil
	}
	if err != nil {
		return 0, total, fmt.Errorf("sim: coverage: %w", err)
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
// re-derived from their seeds, so the merged Result — tables and JSON —
// is byte-identical to a plain unsharded Run at the same configuration.
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
		recs, err := readJournal(dir, plan, rcfg, want)
		if err != nil {
			return nil, fmt.Errorf("sim: merge: %w", err)
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
