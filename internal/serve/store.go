package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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
// or a renamed file can never alias two configurations. A read whose
// header line is byte-equal to the one encodeSpill writes for the
// requested key and the body that follows is served without decoding;
// any other file is decoded in full. Files are written with the
// journal layer's discipline (unique temp file, fsync, rename, fsync'd
// parent directory), so readers and crash recovery only ever see
// complete spills; leftover temp files are debris, deleted on boot and
// never loaded. Any corrupted, truncated or key-mismatched file is
// rejected with a diagnostic, deleted, and the result recomputed — a
// disk hit is byte-identical to a recomputation or it is not served at
// all.
//
// mu guards the index (entries, order, total) and eviction, which
// deletes files; reads, validation and spill writes run outside it, so
// disk hits never wait behind an fsync.
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

// appendSpillHeader appends the header line of key's spill for body,
// without its newline: spillHeader's compact JSON encoding, written
// field by field so a disk hit can check a stored header with one
// byte comparison. The key is canonical RunKey JSON, already compact.
func appendSpillHeader(dst []byte, key string, body []byte) []byte {
	sum := sha256.Sum256(body)
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, spillVersion, 10)
	dst = append(dst, `,"key":`...)
	dst = append(dst, key...)
	dst = append(dst, `,"len":`...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, `,"sha256":"`...)
	dst = hex.AppendEncode(dst, sum[:])
	return append(dst, `"}`...)
}

// encodeSpill renders the spill file bytes for key's body.
func encodeSpill(key string, body []byte) []byte {
	out := appendSpillHeader(make([]byte, 0, len(key)+128+len(body)), key, body)
	out = append(out, '\n')
	return append(out, body...)
}

// matchSpill returns the body of data when its header line is
// byte-equal to the one encodeSpill writes for key and that body. Such
// a file passes every check decodeSpill makes — version, canonical
// key, length, checksum — and its stored key is key, so it is served
// without decoding. A false return says nothing about the file: the
// caller decodes it in full.
func matchSpill(key string, data []byte) ([]byte, bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, false
	}
	body := data[nl+1:]
	if !bytes.Equal(data[:nl], appendSpillHeader(make([]byte, 0, nl), key, body)) {
		return nil, false
	}
	return body, true
}

// decodeSpill parses and validates one spill file: strict header
// decode, format version, canonical RunKey (decoded and re-encoded
// through sim.DecodeRunKey — the filename is never trusted), body
// length and body checksum. It returns the decoded and the encoded
// stored key and the exact response bytes, or a diagnostic explaining
// the rejection.
func decodeSpill(data []byte) (k *sim.RunKey, key string, body []byte, err error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, "", nil, fmt.Errorf("no header line (%d bytes)", len(data))
	}
	var hdr spillHeader
	dec := json.NewDecoder(bytes.NewReader(data[:nl]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hdr); err != nil {
		return nil, "", nil, fmt.Errorf("header: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, "", nil, fmt.Errorf("header: trailing data")
	}
	if hdr.V != spillVersion {
		return nil, "", nil, fmt.Errorf("format version %d, this binary reads version %d", hdr.V, spillVersion)
	}
	k, err = sim.DecodeRunKey(hdr.Key)
	if err != nil {
		return nil, "", nil, fmt.Errorf("header %w", err)
	}
	key = string(hdr.Key)
	if k.Encode() != key {
		return nil, "", nil, fmt.Errorf("header run key is not in canonical encoding")
	}
	body = data[nl+1:]
	if len(body) != hdr.Len {
		return nil, "", nil, fmt.Errorf("body is %d bytes, header says %d (truncated?)", len(body), hdr.Len)
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != hdr.Body {
		return nil, "", nil, fmt.Errorf("body checksum mismatch")
	}
	return k, key, body, nil
}

// warmSpill is one validated spill surfaced at boot for LRU warming:
// the encoded run key, the run's memory-cache key (sim.RunKey.CacheID),
// the response bytes, and the file's modification time.
type warmSpill struct {
	key  string
	id   string
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
		k    *sim.RunKey
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
		k, key, body, derr := decodeSpill(data)
		if derr == nil && spillName(key) != name {
			derr = fmt.Errorf("stored run key hashes to %s (renamed or aliased file)", spillName(key))
		}
		if derr != nil {
			s.reject(path, derr)
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return nil, nil, err
		}
		files = append(files, scanned{
			warmSpill: warmSpill{key: key, body: body, mod: info.ModTime()},
			k:         k,
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
		if _, ok := s.entries[f.key]; !ok {
			continue
		}
		// The memory tier keys by CacheID, which leaves out the plan
		// shape; a spill whose key this binary no longer plans for the
		// same request (written by a build with another plan) stays on
		// disk, where no current request's key reaches it, but is never
		// warmed.
		if id, ok := f.k.CacheID(); ok {
			f.id = id
			warmList = append(warmList, f.warmSpill)
		}
	}
	s.publishGauges()
	return s, warmList, nil
}

// get returns the spilled bytes for key, re-validating the file on
// every read: a spill that no longer decodes, or whose stored key is
// not the requested key (hash collision, drifted file), is rejected
// with a diagnostic and deleted so the caller recomputes. The lock
// covers only the index lookup and the recency touch.
func (s *diskStore) get(key string) ([]byte, bool) {
	el, name, ok := s.lookup(key)
	if !ok {
		return nil, false
	}
	path := filepath.Join(s.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		s.discard(key, el, path, err)
		return nil, false
	}
	body, ok := matchSpill(key, data)
	if !ok {
		var stored string
		_, stored, body, err = decodeSpill(data)
		if err == nil && stored != key {
			err = fmt.Errorf("stored run key differs from requested key (hash collision or drift)")
		}
		if err != nil {
			s.discard(key, el, path, err)
			return nil, false
		}
	}
	// Best-effort recency stamp so the next boot's warm order (sorted
	// by mtime) reflects actual use, not just write time.
	now := time.Now()
	os.Chtimes(path, now, now)
	return body, true
}

// discard handles a failed read of key's spill, whose index row was el
// at lookup. A row no longer current was evicted (and perhaps spilled
// again) since then, so the read is a plain miss; a file that vanished
// under a current row is dropped from the index as a miss; any other
// failure rejects the file.
func (s *diskStore) discard(key string, el *list.Element, path string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[key] != el {
		return
	}
	s.dropLocked(el)
	if errors.Is(err, fs.ErrNotExist) {
		s.logf("reprod: cache: spill %s vanished; the result will be recomputed", path)
		return
	}
	s.reject(path, err)
}

// put spills body under key, evicting least-recently-used spill files
// once the byte budget is exceeded. The file is written outside the
// lock, which covers only the index insert (after a stat that the file
// is still there) and the eviction. Spill failures degrade silently to
// memory-only behaviour for that entry: the result stays served from
// the memory cache, it just will not survive a restart.
func (s *diskStore) put(key string, body []byte) {
	if _, _, ok := s.lookup(key); ok {
		return // already spilled; the bytes are identical by determinism
	}
	data := encodeSpill(key, body)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		// A concurrent put of the same key indexed it first; its file
		// holds the same bytes, so only the recency moves.
		s.order.MoveToFront(el)
		return
	}
	if _, err := os.Stat(filepath.Join(s.dir, name)); err != nil {
		// A concurrent put of the same key indexed its spill after this
		// write, and an eviction has since deleted the shared file: no
		// row for a file that is not there.
		return
	}
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

// lookup returns key's index row and spill filename, moving the row to
// the front of the recency order.
func (s *diskStore) lookup(key string) (el *list.Element, name string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok = s.entries[key]
	if !ok {
		return nil, "", false
	}
	s.order.MoveToFront(el)
	return el, el.Value.(*spillEntry).name, true
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

// reject deletes a corrupt/truncated/mismatched spill with a
// diagnostic; the next request for its key recomputes and re-spills.
func (s *diskStore) reject(path string, err error) {
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
