package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
)

// diskStore is the persistent tier of the exact result cache: response
// bytes spilled to <dir>/<sha256-of-RunKey>.json so a restarted daemon
// answers previously-computed requests without re-running the sweep.
// The soundness argument is the memory cache's, unchanged by the trip
// through the filesystem: results are pure functions of their RunKey,
// so stored bytes are valid forever — no TTLs, no invalidation — and
// eviction is purely capacity-driven (a byte budget over spill files).
//
// Every spill file is self-describing: a one-line JSON header records
// the full encoded RunKey, the body length and a body checksum, then
// the exact response bytes follow. The filename hash is a lookup
// convenience, never an identity — a hit is served only after the
// stored key compares equal to the requested key, so a hash collision
// or a renamed file can never alias two configurations. Files are
// written with the journal layer's discipline (unique temp file,
// fsync, rename, fsync'd parent directory), so readers and crash
// recovery only ever see complete spills; leftover temp files are
// debris, deleted on boot and never loaded. Any corrupted, truncated
// or key-mismatched file is rejected with a diagnostic, deleted, and
// the result recomputed — a disk hit is byte-identical to a
// recomputation or it is not served at all.
type diskStore struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	total    int64
	entries  map[string]*list.Element // encoded RunKey → *spillEntry
	order    *list.List               // front = most recently used
	metrics  *Metrics
	logf     func(format string, args ...any)
}

// spillEntry is the in-memory index row of one spill file.
type spillEntry struct {
	key  string // encoded RunKey
	name string // filename inside dir
	size int64  // file size in bytes
}

// spillVersion is the spill-file format version; bump on any change to
// the header or body encoding.
const spillVersion = 1

// spillHeader is the first line of a spill file: the full encoded
// RunKey (the sidecar identity the filename hash is checked against),
// the body length and a body checksum. The header is strict JSON on a
// single line; the response bytes follow the newline verbatim.
type spillHeader struct {
	V    int             `json:"v"`
	Key  json.RawMessage `json:"key"`
	Len  int             `json:"len"`
	Body string          `json:"sha256"`
}

// spillName maps an encoded RunKey to its spill filename. The hash is
// only an address: the stored header key is the identity.
func spillName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".json"
}

// isSpillName reports whether name looks like a spill file (64 hex
// digits + ".json"); everything else in the directory is ignored.
func isSpillName(name string) bool {
	base, ok := strings.CutSuffix(name, ".json")
	if !ok || len(base) != sha256.Size*2 {
		return false
	}
	for _, c := range base {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// encodeSpill renders the spill file bytes for key's body.
func encodeSpill(key string, body []byte) []byte {
	sum := sha256.Sum256(body)
	hdr, err := json.Marshal(spillHeader{
		V:    spillVersion,
		Key:  json.RawMessage(key),
		Len:  len(body),
		Body: hex.EncodeToString(sum[:]),
	})
	if err != nil {
		// The key is canonical RunKey JSON and the rest are scalars;
		// marshalling cannot fail.
		panic(fmt.Sprintf("serve: spill encode: %v", err))
	}
	out := make([]byte, 0, len(hdr)+1+len(body))
	out = append(out, hdr...)
	out = append(out, '\n')
	return append(out, body...)
}

// decodeSpill parses and validates one spill file: strict header
// decode, format version, canonical RunKey (decoded and re-encoded
// through sim.DecodeRunKey — the filename is never trusted), body
// length and body checksum. It returns the stored key and the exact
// response bytes, or a diagnostic explaining the rejection.
func decodeSpill(data []byte) (key string, body []byte, err error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return "", nil, fmt.Errorf("no header line (%d bytes)", len(data))
	}
	var hdr spillHeader
	dec := json.NewDecoder(bytes.NewReader(data[:nl]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hdr); err != nil {
		return "", nil, fmt.Errorf("header: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return "", nil, fmt.Errorf("header: trailing data")
	}
	if hdr.V != spillVersion {
		return "", nil, fmt.Errorf("format version %d, this binary reads version %d", hdr.V, spillVersion)
	}
	k, err := sim.DecodeRunKey(hdr.Key)
	if err != nil {
		return "", nil, fmt.Errorf("header %w", err)
	}
	key = string(hdr.Key)
	if k.Encode() != key {
		return "", nil, fmt.Errorf("header run key is not in canonical encoding")
	}
	body = data[nl+1:]
	if len(body) != hdr.Len {
		return "", nil, fmt.Errorf("body is %d bytes, header says %d (truncated?)", len(body), hdr.Len)
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != hdr.Body {
		return "", nil, fmt.Errorf("body checksum mismatch")
	}
	return key, body, nil
}

// warmSpill is one validated spill surfaced at boot for LRU warming:
// the key, the response bytes, and the file's modification time.
type warmSpill struct {
	key  string
	body []byte
	mod  time.Time
}

// newDiskStore opens (or creates) dir, deletes temp-file debris from a
// crashed writer, validates every spill file — corrupt ones are
// rejected with a diagnostic and deleted — enforces the byte budget,
// and returns the store plus up to warm validated spills, most
// recently modified first, for the caller to warm its memory LRU. An
// unusable directory is an error; the caller degrades to memory-only.
func newDiskStore(dir string, maxBytes int64, warm int, m *Metrics, logf func(string, ...any)) (*diskStore, []warmSpill, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	s := &diskStore{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		metrics:  m,
		logf:     logf,
	}
	type scanned struct {
		warmSpill
		name string
		size int64
	}
	var files []scanned
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-") {
			// Debris of a writer that crashed between temp-write and
			// rename: never a complete spill, ignored as data and
			// deleted so it cannot accumulate.
			if err := os.Remove(filepath.Join(dir, name)); err == nil {
				logf("reprod: cache: removed crash debris %s", name)
			}
			continue
		}
		if !isSpillName(name) {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		key, body, derr := decodeSpill(data)
		if derr == nil && spillName(key) != name {
			derr = fmt.Errorf("stored run key hashes to %s (renamed or aliased file)", spillName(key))
		}
		if derr != nil {
			s.rejectLocked(path, derr)
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return nil, nil, err
		}
		files = append(files, scanned{
			warmSpill: warmSpill{key: key, body: body, mod: info.ModTime()},
			name:      name,
			size:      int64(len(data)),
		})
	}
	// Most recently modified first: that is both the boot eviction
	// order (oldest evicted when over budget) and the warm order.
	sort.Slice(files, func(i, j int) bool { return files[i].mod.After(files[j].mod) })
	for _, f := range files {
		if s.maxBytes > 0 && s.total+f.size > s.maxBytes && s.order.Len() > 0 {
			// Over budget: everything older than this point is evicted.
			// (The newest file always loads, even alone over budget —
			// an empty store is strictly worse.)
			s.removeFile(f.name, f.size)
			continue
		}
		s.entries[f.key] = s.order.PushBack(&spillEntry{key: f.key, name: f.name, size: f.size})
		s.total += f.size
	}
	warmList := make([]warmSpill, 0, min(warm, len(files)))
	for _, f := range files {
		if len(warmList) >= warm {
			break
		}
		if _, ok := s.entries[f.key]; ok {
			warmList = append(warmList, f.warmSpill)
		}
	}
	s.publishGauges()
	return s, warmList, nil
}

// get returns the spilled bytes for key, re-validating the file on
// every read: a spill that no longer decodes, or whose stored key is
// not the requested key (hash collision, drifted file), is rejected
// with a diagnostic and deleted so the caller recomputes.
func (s *diskStore) get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*spillEntry)
	path := filepath.Join(s.dir, e.name)
	data, err := os.ReadFile(path)
	if err != nil {
		s.dropLocked(el)
		s.rejectLocked(path, err)
		return nil, false
	}
	stored, body, err := decodeSpill(data)
	if err == nil && stored != key {
		err = fmt.Errorf("stored run key differs from requested key (hash collision or drift)")
	}
	if err != nil {
		s.dropLocked(el)
		s.rejectLocked(path, err)
		return nil, false
	}
	s.order.MoveToFront(el)
	// Best-effort recency stamp so the next boot's warm order (sorted
	// by mtime) reflects actual use, not just write time.
	now := time.Now()
	os.Chtimes(path, now, now)
	return body, true
}

// put spills body under key, evicting least-recently-used spill files
// once the byte budget is exceeded. Spill failures degrade silently to
// memory-only behaviour for that entry: the result stays served from
// the memory cache, it just will not survive a restart.
func (s *diskStore) put(key string, body []byte) {
	data := encodeSpill(key, body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		// Already spilled; the bytes are identical by determinism.
		s.order.MoveToFront(el)
		return
	}
	if s.maxBytes > 0 && int64(len(data)) > s.maxBytes {
		s.logf("reprod: cache: result of %d bytes exceeds the %d-byte disk budget; not spilled", len(data), s.maxBytes)
		return
	}
	name := spillName(key)
	if err := sim.AtomicWrite(s.dir, name, data, true); err != nil {
		s.logf("reprod: cache: spill %s: %v", name, err)
		return
	}
	s.metrics.SpillWrites.Add(1)
	s.entries[key] = s.order.PushFront(&spillEntry{key: key, name: name, size: int64(len(data))})
	s.total += int64(len(data))
	for s.maxBytes > 0 && s.total > s.maxBytes && s.order.Len() > 1 {
		oldest := s.order.Back()
		e := oldest.Value.(*spillEntry)
		s.dropLocked(oldest)
		s.removeFile(e.name, e.size)
	}
	s.publishGauges()
}

// stats returns the resident spill count and total bytes.
func (s *diskStore) stats() (entries int, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len(), s.total
}

// dropLocked removes el from the index (the file is handled by the
// caller: deleted on rejection/eviction).
func (s *diskStore) dropLocked(el *list.Element) {
	e := el.Value.(*spillEntry)
	s.order.Remove(el)
	delete(s.entries, e.key)
	s.total -= e.size
	s.publishGauges()
}

// rejectLocked deletes a corrupt/truncated/mismatched spill with a
// diagnostic; the next request for its key recomputes and re-spills.
func (s *diskStore) rejectLocked(path string, err error) {
	s.metrics.CorruptSpills.Add(1)
	s.logf("reprod: cache: rejecting spill %s: %v — deleted; the result will be recomputed", path, err)
	os.Remove(path)
}

// removeFile deletes an evicted spill file and counts its bytes.
func (s *diskStore) removeFile(name string, size int64) {
	if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
		s.logf("reprod: cache: evict %s: %v", name, err)
	}
	s.metrics.EvictedSpillBytes.Add(size)
}

// publishGauges mirrors the store's size into the metrics gauges.
func (s *diskStore) publishGauges() {
	s.metrics.DiskEntries.Store(int64(s.order.Len()))
	s.metrics.DiskBytes.Store(s.total)
}
