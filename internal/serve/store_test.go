package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// spillFiles lists the spill files resident in dir (temp debris and
// strangers excluded).
func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if isSpillName(e.Name()) {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestDiskColdRestartHitByteIdenticalAllExperiments is the persistent
// half of the serving invariant, table-driven over the whole registry
// and mirroring the cold-vs-hit suite: a cold compute spills to disk, a
// restarted server warms its LRU from the store and answers the same
// request byte-identical to a direct recomputation without running a
// sweep, and a memory-disabled server serves the same bytes straight
// from the disk tier.
func TestDiskColdRestartHitByteIdenticalAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registry experiment")
	}
	dir := t.TempDir()
	reg := sim.Registry()

	// Cold: every experiment computed once, spilled to disk.
	a, tsA := testServer(t, Options{CacheDir: dir})
	for _, e := range reg {
		url := fmt.Sprintf("%s/v1/run?exp=%s&seed=11&trials=1", tsA.URL, e.Name)
		status, source, body := get(t, url)
		if status != http.StatusOK || source != "miss" {
			t.Fatalf("%s: cold status %d cache %q, want 200 miss", e.Name, status, source)
		}
		if want := directBytes(t, e.Name, sim.ExpConfig{Seed: 11, Trials: 1}); !bytes.Equal(body, want) {
			t.Errorf("%s: cold response differs from direct run", e.Name)
		}
	}
	if n, want := a.metrics.SpillWrites.Load(), int64(len(reg)); n != want {
		t.Errorf("spill writes = %d, want %d", n, want)
	}
	if got := len(spillFiles(t, dir)); got != len(reg) {
		t.Errorf("store holds %d spill files, want %d", got, len(reg))
	}

	// Restart: the warm-booted server answers from memory without a
	// single sweep, byte-identical to a direct recomputation.
	b, tsB := testServer(t, Options{CacheDir: dir})
	if n, want := b.metrics.WarmedEntries.Load(), int64(len(reg)); n != want {
		t.Fatalf("warm-boot entries = %d, want %d", n, want)
	}
	for _, e := range reg {
		url := fmt.Sprintf("%s/v1/run?exp=%s&seed=11&trials=1", tsB.URL, e.Name)
		status, source, body := get(t, url)
		if status != http.StatusOK || source != "hit" {
			t.Fatalf("%s: restarted status %d cache %q, want 200 hit (warm boot)", e.Name, status, source)
		}
		if want := directBytes(t, e.Name, sim.ExpConfig{Seed: 11, Trials: 1}); !bytes.Equal(body, want) {
			t.Errorf("%s: warm-boot response differs from direct run", e.Name)
		}
	}
	if n := b.metrics.runSeconds.count.Load(); n != 0 {
		t.Errorf("restarted server ran %d sweeps, want 0 (run histogram)", n)
	}

	// Memory caching disabled: the same requests are served from the
	// disk tier itself, still byte-identical, still no sweeps.
	c, tsC := testServer(t, Options{CacheDir: dir, CacheEntries: -1})
	for _, e := range reg {
		url := fmt.Sprintf("%s/v1/run?exp=%s&seed=11&trials=1", tsC.URL, e.Name)
		status, source, body := get(t, url)
		if status != http.StatusOK || source != "disk" {
			t.Fatalf("%s: status %d cache %q, want 200 disk", e.Name, status, source)
		}
		if want := directBytes(t, e.Name, sim.ExpConfig{Seed: 11, Trials: 1}); !bytes.Equal(body, want) {
			t.Errorf("%s: disk response differs from direct run", e.Name)
		}
	}
	if n, want := c.metrics.DiskHits.Load(), int64(len(reg)); n != want {
		t.Errorf("disk hits = %d, want %d", n, want)
	}
	if n := c.metrics.runSeconds.count.Load(); n != 0 {
		t.Errorf("memory-disabled server ran %d sweeps, want 0", n)
	}
}

// seedSpillDir computes eq3 (seed 7, trials 1) through a disk-backed
// server, leaving exactly one valid spill file in a fresh directory. It
// returns the directory, the spill filename and the response bytes.
func seedSpillDir(t *testing.T) (dir, name string, body []byte) {
	t.Helper()
	dir = t.TempDir()
	_, ts := testServer(t, Options{CacheDir: dir})
	status, _, body := get(t, ts.URL+"/v1/run?exp=eq3&seed=7&trials=1")
	if status != http.StatusOK {
		t.Fatalf("seed request: status %d", status)
	}
	names := spillFiles(t, dir)
	if len(names) != 1 {
		t.Fatalf("seed dir holds %d spill files, want 1", len(names))
	}
	return dir, names[0], body
}

// TestCorruptSpillsRejectedAndRecomputed is the corruption suite, in
// the style of the checkpoint layer's: every damaged, truncated or
// key-mismatched spill file is rejected with a diagnostic, deleted, and
// the request transparently recomputed byte-identical to a direct run.
func TestCorruptSpillsRejectedAndRecomputed(t *testing.T) {
	damage := []struct {
		name string
		do   func(t *testing.T, path string)
	}{
		{"truncated_body", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not a spill file at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong_version", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data = bytes.Replace(data, []byte(`{"v":1,`), []byte(`{"v":2,`), 1)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped_body_bit", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x40 // body corruption the length check misses
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"renamed_to_other_hash", func(t *testing.T, path string) {
			// A filename whose hash is not the stored key's hash: the
			// sidecar key, not the filename, is authoritative.
			other := filepath.Join(filepath.Dir(path), strings.Repeat("ab", 32)+".json")
			if err := os.Rename(path, other); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir, name, want := seedSpillDir(t)
			d.do(t, filepath.Join(dir, name))

			s, ts := testServer(t, Options{CacheDir: dir})
			if n := s.metrics.WarmedEntries.Load(); n != 0 {
				t.Errorf("damaged spill warmed %d entries, want 0", n)
			}
			if n := s.metrics.CorruptSpills.Load(); n < 1 {
				t.Errorf("corrupt-reject counter = %d, want >= 1", n)
			}
			status, source, body := get(t, ts.URL+"/v1/run?exp=eq3&seed=7&trials=1")
			if status != http.StatusOK || source != "miss" {
				t.Fatalf("status %d cache %q, want 200 miss (recompute)", status, source)
			}
			if !bytes.Equal(body, want) {
				t.Error("recomputed response not byte-identical to the original")
			}
			// The recompute re-spilled a valid file; the damaged one is gone.
			names := spillFiles(t, dir)
			if len(names) != 1 || names[0] != name {
				t.Errorf("store holds %v after recompute, want just %s", names, name)
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := decodeSpill(data); err != nil {
				t.Errorf("re-spilled file does not decode: %v", err)
			}
		})
	}
}

// TestCorruptSpillRejectedOnRead covers the mid-lifetime window the
// boot scan cannot: a spill that validates at boot but is corrupted
// before a disk read is rejected at get time and recomputed.
func TestCorruptSpillRejectedOnRead(t *testing.T) {
	dir, name, want := seedSpillDir(t)
	// Memory cache disabled, so the request must go through the disk.
	s, ts := testServer(t, Options{CacheDir: dir, CacheEntries: -1})
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	status, source, body := get(t, ts.URL+"/v1/run?exp=eq3&seed=7&trials=1")
	if status != http.StatusOK || source != "miss" {
		t.Fatalf("status %d cache %q, want 200 miss (recompute)", status, source)
	}
	if !bytes.Equal(body, want) {
		t.Error("recomputed response not byte-identical")
	}
	if n := s.metrics.CorruptSpills.Load(); n != 1 {
		t.Errorf("corrupt-reject counter = %d, want 1", n)
	}
	// The rejected file was replaced by the recompute's spill and now
	// serves a clean disk hit.
	status, source, body = get(t, ts.URL+"/v1/run?exp=eq3&seed=7&trials=1")
	if status != http.StatusOK || source != "disk" || !bytes.Equal(body, want) {
		t.Errorf("after recompute: status %d cache %q, want 200 disk with identical bytes", status, source)
	}
}

// TestDriftedPlanSpillNotWarmed pins warm boot against plan drift: a
// spill whose stored key carries the same name, seed, trials, scale,
// kind and step budget as a request but a plan this binary does not
// make (here one extra point, as a build with another plan would write)
// shares the request's CacheID without being its run. It must not be
// warmed into the memory tier, and the request is computed afresh.
func TestDriftedPlanSpillNotWarmed(t *testing.T) {
	e, ok := sim.Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	k, err := e.RunKey(sim.ExpConfig{Seed: 7, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	k.Points = append(k.Points, sim.ManifestPoint{Key: "extra", Salt: 1, Trials: 1})
	drifted := k.Encode()
	dir := t.TempDir()
	st, _, err := newDiskStore(dir, 0, 0, NewMetrics(), func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	st.put(drifted, []byte(`{"stale":true}`+"\n"))

	s, ts := testServer(t, Options{CacheDir: dir})
	if n := s.metrics.WarmedEntries.Load(); n != 0 {
		t.Errorf("warm-boot entries = %d, want 0 (the drifted spill is not this binary's run)", n)
	}
	status, source, body := get(t, ts.URL+"/v1/run?exp=eq3&seed=7&trials=1")
	if status != http.StatusOK || source != "miss" {
		t.Fatalf("status %d cache %q, want 200 miss (computed)", status, source)
	}
	if want := directBytes(t, "eq3", sim.ExpConfig{Seed: 7, Trials: 1}); !bytes.Equal(body, want) {
		t.Error("response differs from a direct run")
	}
}

// TestCrashDebrisIgnoredAndCleaned pins the crash-consistency window:
// a temp file left between temp-write and rename is never loaded as a
// result and is deleted by the boot scan.
func TestCrashDebrisIgnoredAndCleaned(t *testing.T) {
	dir, name, want := seedSpillDir(t)
	debris := filepath.Join(dir, "."+name+".tmp-123456")
	if err := os.WriteFile(debris, []byte("half-written spill"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Options{CacheDir: dir})
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Errorf("crash debris %s survived the boot scan (err=%v)", debris, err)
	}
	if n := s.metrics.WarmedEntries.Load(); n != 1 {
		t.Errorf("warm-boot entries = %d, want 1 (only the complete spill)", n)
	}
	if n := s.metrics.CorruptSpills.Load(); n != 0 {
		t.Errorf("debris counted as corrupt spill (%d), want 0", n)
	}
	status, source, body := get(t, ts.URL+"/v1/run?exp=eq3&seed=7&trials=1")
	if status != http.StatusOK || source != "hit" || !bytes.Equal(body, want) {
		t.Errorf("status %d cache %q, want 200 hit with the original bytes", status, source)
	}
}

// testRunKeys builds n distinct canonical run-key encodings (varying
// the master seed of one registry experiment).
func testRunKeys(t testing.TB, n int) []string {
	t.Helper()
	e, ok := sim.Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	keys := make([]string, n)
	for i := range keys {
		k, err := e.RunKey(sim.ExpConfig{Seed: uint64(i + 1), Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k.Encode()
	}
	return keys
}

// TestDiskStoreBudgetEviction drives the store directly: spills past
// the byte budget evict the least recently used files, the counter
// records the evicted bytes, and a re-opened store sees only the
// survivors.
func TestDiskStoreBudgetEviction(t *testing.T) {
	dir := t.TempDir()
	keys := testRunKeys(t, 4)
	body := bytes.Repeat([]byte("x"), 256)
	one := int64(len(encodeSpill(keys[0], body))) // all four spills share a size
	m := NewMetrics()
	logf := func(string, ...any) {}

	st, warm, err := newDiskStore(dir, 2*one+one/2, 256, m, logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != 0 {
		t.Fatalf("fresh store warmed %d entries", len(warm))
	}
	for _, k := range keys[:3] {
		st.put(k, body)
	}
	// Budget fits two spills: the oldest (keys[0]) was evicted.
	if entries, total := st.stats(); entries != 2 || total > 2*one+one/2 {
		t.Errorf("store holds %d entries / %d bytes after eviction, want 2 within budget", entries, total)
	}
	if _, ok := st.get(keys[0]); ok {
		t.Error("evicted key still served")
	}
	if n := m.EvictedSpillBytes.Load(); n != one {
		t.Errorf("evicted bytes = %d, want %d", n, one)
	}
	// A get promotes keys[1]; the next over-budget put evicts keys[2].
	if _, ok := st.get(keys[1]); !ok {
		t.Fatal("resident key missing")
	}
	st.put(keys[3], body)
	if _, ok := st.get(keys[2]); ok {
		t.Error("LRU spill survived the second eviction")
	}
	if _, ok := st.get(keys[1]); !ok {
		t.Error("recently-used spill was evicted instead of the LRU one")
	}

	// Re-open: only the survivors are indexed and warmed.
	m2 := NewMetrics()
	st2, warm2, err := newDiskStore(dir, 4*one, 256, m2, logf)
	if err != nil {
		t.Fatal(err)
	}
	if entries, _ := st2.stats(); entries != 2 || len(warm2) != 2 {
		t.Errorf("re-opened store: %d entries, %d warmed; want 2 and 2", entries, len(warm2))
	}
	for _, w := range warm2 {
		if !bytes.Equal(w.body, body) {
			t.Error("warmed body differs from the spilled bytes")
		}
	}
}

// TestDiskStoreBootBudget pins budget enforcement at boot: an existing
// store larger than the configured budget is trimmed oldest-first
// before warming.
func TestDiskStoreBootBudget(t *testing.T) {
	dir := t.TempDir()
	keys := testRunKeys(t, 3)
	body := bytes.Repeat([]byte("y"), 128)
	one := int64(len(encodeSpill(keys[0], body)))
	m := NewMetrics()
	logf := func(string, ...any) {}
	st, _, err := newDiskStore(dir, 8*one, 256, m, logf)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		st.put(k, body)
		// Distinct mtimes so the boot order is deterministic.
		mod := time.Unix(int64(1000+i), 0)
		os.Chtimes(filepath.Join(dir, spillName(k)), mod, mod)
	}

	m2 := NewMetrics()
	st2, warm, err := newDiskStore(dir, one+one/2, 256, m2, logf)
	if err != nil {
		t.Fatal(err)
	}
	if entries, total := st2.stats(); entries != 1 || total != one {
		t.Errorf("boot-trimmed store holds %d entries / %d bytes, want 1 / %d", entries, total, one)
	}
	if len(warm) != 1 || warm[0].key != keys[2] {
		t.Fatalf("warmed %d entries, want just the newest (keys[2])", len(warm))
	}
	if n := m2.EvictedSpillBytes.Load(); n != 2*one {
		t.Errorf("boot evicted %d bytes, want %d", n, 2*one)
	}
	if got := len(spillFiles(t, dir)); got != 1 {
		t.Errorf("%d spill files survive the boot trim, want 1", got)
	}
}

// TestUnusableCacheDirDegradesToMemoryOnly pins graceful degradation:
// a cache path that cannot be a directory costs persistence, never the
// service.
func TestUnusableCacheDirDegradesToMemoryOnly(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("occupied"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Options{CacheDir: file})
	if dir, active, err := s.DiskCache(); dir != file || active || err == nil {
		t.Errorf("DiskCache() = (%q, %v, %v), want inactive with an error", dir, active, err)
	}
	status, source, body := get(t, ts.URL+"/v1/run?exp=eq3&seed=7&trials=1")
	if status != http.StatusOK || source != "miss" {
		t.Fatalf("degraded server: status %d cache %q, want 200 miss", status, source)
	}
	if want := directBytes(t, "eq3", sim.ExpConfig{Seed: 7, Trials: 1}); !bytes.Equal(body, want) {
		t.Error("degraded response differs from direct run")
	}
	if status, source, _ := get(t, ts.URL+"/v1/run?exp=eq3&seed=7&trials=1"); status != http.StatusOK || source != "hit" {
		t.Errorf("memory cache inactive on degraded server: status %d cache %q", status, source)
	}
}

// FuzzDecodeSpill fuzzes the spill decoder: it must never panic, and
// anything it accepts must carry a canonical run key and round-trip
// through encodeSpill to the identical file bytes. It also fuzzes the
// disk-hit fast path against the decoder for one fixed requested key:
// whatever matchSpill accepts, decodeSpill accepts with that key and
// the identical body.
func FuzzDecodeSpill(f *testing.F) {
	e, ok := sim.Lookup("eq3")
	if !ok {
		f.Fatal("eq3 not registered")
	}
	k, err := e.RunKey(sim.ExpConfig{Seed: 3, Trials: 1})
	if err != nil {
		f.Fatal(err)
	}
	requested := k.Encode()
	valid := encodeSpill(requested, []byte(`{"rows":[1,2,3]}`))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                    // truncated mid-file
	f.Add(valid[:bytes.IndexByte(valid, '\n')])    // header only, no newline
	f.Add(append(append([]byte{}, valid...), 'x')) // trailing garbage
	f.Add(bytes.Replace(valid, []byte(`{"v":1,`), []byte(`{"v":9,`), 1))
	f.Add(bytes.Replace(valid, []byte(`"key":{`), []byte(`"key":{"zz":1,`), 1))
	f.Add(bytes.Replace(valid, []byte(`{"v":1,`), []byte(`{"v": 1,`), 1)) // valid, not byte-equal
	f.Add(encodeSpill(testRunKeys(f, 1)[0], []byte(`{"rows":[1,2,3]}`)))  // another key
	f.Add(encodeSpill(requested, nil))
	f.Add([]byte("\n"))
	f.Add([]byte("{}\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		if fast, ok := matchSpill(requested, data); ok {
			_, key, body, err := decodeSpill(data)
			if err != nil || key != requested || !bytes.Equal(body, fast) {
				t.Fatalf("fast path accepted a spill the decoder does not (key=%q err=%v)", key, err)
			}
		}
		_, key, body, err := decodeSpill(data)
		if err != nil {
			return
		}
		rk, err := sim.DecodeRunKey([]byte(key))
		if err != nil {
			t.Fatalf("accepted spill carries an invalid run key: %v", err)
		}
		if rk.Encode() != key {
			t.Fatal("accepted spill carries a non-canonical run key")
		}
		// Semantic round-trip: re-encoding what was accepted must
		// decode back to the identical key and bytes (the header
		// tolerates JSON whitespace/field order, so byte equality of
		// the file itself is not required).
		_, k2, b2, err := decodeSpill(encodeSpill(key, body))
		if err != nil || k2 != key || !bytes.Equal(b2, body) {
			t.Fatalf("accepted spill does not round-trip: key=%q err=%v", k2, err)
		}
	})
}

// TestSpillHeaderFastPathAllExperiments checks, for every registry
// experiment, that the spill encodeSpill writes takes the disk-hit fast
// path, so real spills never fall through to the full decode: its
// header line is spillHeader's JSON encoding, the form decodeSpill
// reads and earlier releases wrote, and matchSpill and decodeSpill both
// accept the file with the same body.
func TestSpillHeaderFastPathAllExperiments(t *testing.T) {
	body := []byte(`{"name":"x","rows":[1,2,3]}` + "\n")
	for _, e := range sim.Registry() {
		for _, cfg := range []sim.ExpConfig{{Seed: 11, Trials: 1}, {Kind: rng.KindMT19937, MaxSteps: 99}} {
			k, err := e.RunKey(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			key := k.Encode()
			data := encodeSpill(key, body)
			sum := sha256.Sum256(body)
			want, err := json.Marshal(spillHeader{V: spillVersion, Key: json.RawMessage(key), Len: len(body), Body: hex.EncodeToString(sum[:])})
			if err != nil {
				t.Fatal(err)
			}
			if hdr, _, _ := bytes.Cut(data, []byte("\n")); !bytes.Equal(hdr, want) {
				t.Errorf("%s: header\n got %s\nwant %s", e.Name, hdr, want)
			}
			if got, ok := matchSpill(key, data); !ok || !bytes.Equal(got, body) {
				t.Errorf("%s: fast path rejects the spill encodeSpill writes", e.Name)
			}
			if _, stored, got, err := decodeSpill(data); err != nil || stored != key || !bytes.Equal(got, body) {
				t.Errorf("%s: decodeSpill: key match %v, err %v", e.Name, stored == key, err)
			}
		}
	}
}

// TestDiskStoreConcurrentGetPut runs gets and puts of a few keys from
// several goroutines against a budget that fits two spills, so most
// puts evict a spill another goroutine may be reading. Every get must
// return a miss or the exact bytes put for its key, and no spill may be
// counted corrupt: a spill evicted between lookup and read is a miss.
// No index row may ever name a missing file, so no read finds its
// spill vanished under a current row.
func TestDiskStoreConcurrentGetPut(t *testing.T) {
	keys := testRunKeys(t, 6)
	bodies := make([][]byte, len(keys))
	for i := range bodies {
		bodies[i] = bytes.Repeat([]byte{byte('a' + i)}, 300)
	}
	one := int64(len(encodeSpill(keys[0], bodies[0])))
	m := NewMetrics()
	var vanished atomic.Int64
	logf := func(format string, args ...any) {
		if strings.Contains(format, "vanished") {
			vanished.Add(1)
		}
	}
	st, _, err := newDiskStore(t.TempDir(), 2*one+one/2, 0, m, logf)
	if err != nil {
		t.Fatal(err)
	}
	const workers, ops = 4, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				i := (w/2 + j*5) % len(keys) // workers 2k and 2k+1 collide
				if j%2 == 0 {
					st.put(keys[i], bodies[i])
					continue
				}
				if got, ok := st.get(keys[i]); ok && !bytes.Equal(got, bodies[i]) {
					t.Errorf("get of key %d returned another key's bytes", i)
				}
			}
		}()
	}
	wg.Wait()
	if n := m.CorruptSpills.Load(); n != 0 {
		t.Errorf("corrupt-reject counter = %d, want 0", n)
	}
	if n := vanished.Load(); n != 0 {
		t.Errorf("%d reads found an indexed spill's file gone", n)
	}
	entries, total := st.stats()
	if total > 2*one+one/2 || total != int64(entries)*one || len(st.entries) != entries {
		t.Errorf("store indexes %d keys, %d entries / %d bytes; want one entry per key within the %d-byte budget at %d bytes each",
			len(st.entries), entries, total, 2*one+one/2, one)
	}
	// The index and the directory agree: every row's file is on disk,
	// so the byte total counts only bytes that are there.
	for el := st.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*spillEntry)
		if _, err := os.Stat(filepath.Join(st.dir, e.name)); err != nil {
			t.Errorf("indexed spill %s is not on disk: %v", e.name, err)
		}
	}
}

// TestDiskStoreVanishedSpillIsMiss pins the read of a spill whose file
// is gone under its index row: a miss that drops the row, not a
// corruption.
func TestDiskStoreVanishedSpillIsMiss(t *testing.T) {
	dir := t.TempDir()
	key := testRunKeys(t, 1)[0]
	m := NewMetrics()
	st, _, err := newDiskStore(dir, 0, 0, m, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	st.put(key, []byte("body"))
	if err := os.Remove(filepath.Join(dir, spillName(key))); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.get(key); ok {
		t.Fatal("vanished spill served")
	}
	if entries, total := st.stats(); entries != 0 || total != 0 {
		t.Errorf("store still indexes %d entries / %d bytes", entries, total)
	}
	if n := m.CorruptSpills.Load(); n != 0 {
		t.Errorf("corrupt-reject counter = %d, want 0", n)
	}
}
