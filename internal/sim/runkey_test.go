package sim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// TestRunKeyEncodingGolden pins RunKey's canonical encoding to the
// byte. The encoded key is persisted outside this process — it is the
// serving layer's cache key and, version-prefixed, the checkpoint
// manifest — so any drift (field rename, reorder, omitempty change)
// must fail loudly here, not silently split cache identity from
// journal identity.
func TestRunKeyEncodingGolden(t *testing.T) {
	k := RunKey{
		Name:     "eq3",
		Salt:     5,
		Scale:    2,
		Seed:     2012,
		Trials:   3,
		Kind:     1,
		MaxSteps: 0,
		Points: []ManifestPoint{
			{Key: "n=1000 d=4", Salt: 0x1234, Trials: 3, Arms: []string{"eprocess", "srw"}},
			{Key: "n=2000 d=4", Salt: 0x5678, Trials: 5},
		},
	}
	const want = `{"name":"eq3","salt":5,"scale":2,"seed":2012,"trials":3,"kind":1,` +
		`"points":[{"key":"n=1000 d=4","salt":4660,"trials":3,"arms":["eprocess","srw"]},` +
		`{"key":"n=2000 d=4","salt":22136,"trials":5}]}`
	if got := k.Encode(); got != want {
		t.Errorf("RunKey encoding drifted:\n got %s\nwant %s", got, want)
	}

	// MaxSteps participates when set (omitempty hides only the zero).
	k.MaxSteps = 7
	const wantBudget = `{"name":"eq3","salt":5,"scale":2,"seed":2012,"trials":3,"kind":1,"max_steps":7,` +
		`"points":[{"key":"n=1000 d=4","salt":4660,"trials":3,"arms":["eprocess","srw"]},` +
		`{"key":"n=2000 d=4","salt":22136,"trials":5}]}`
	if got := k.Encode(); got != wantBudget {
		t.Errorf("RunKey encoding with MaxSteps drifted:\n got %s\nwant %s", got, wantBudget)
	}
}

// TestDecodeRunKey pins the strict decoder the serving layer's spill
// headers rely on: a canonical Encode() round-trips, and anything a
// runKey construction could not have produced — unknown fields,
// trailing bytes, implausible shapes, non-JSON — is rejected.
func TestDecodeRunKey(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	key, err := e.RunKey(ExpConfig{Seed: 42, Trials: 2, MaxSteps: 9})
	if err != nil {
		t.Fatal(err)
	}
	enc := key.Encode()
	got, err := DecodeRunKey([]byte(enc))
	if err != nil {
		t.Fatalf("canonical key rejected: %v", err)
	}
	if got.Encode() != enc {
		t.Errorf("round-trip drifted:\n got %s\nwant %s", got.Encode(), enc)
	}
	if err := got.Matches(key); err != nil {
		t.Errorf("decoded key differs from the original: %v", err)
	}

	bad := map[string]string{
		"empty":         "",
		"not_json":      "spill",
		"unknown_field": `{"seed":1,"trials":1,"workers":8,"points":[{"key":"p","salt":1,"trials":1}]}`,
		"trailing":      enc + "{}",
		"no_points":     `{"seed":1,"trials":1,"kind":1,"points":[]}`,
		"zero_trials":   `{"seed":1,"trials":0,"kind":1,"points":[{"key":"p","salt":1,"trials":1}]}`,
		"null":          "null",
	}
	for name, data := range bad {
		if _, err := DecodeRunKey([]byte(data)); err == nil {
			t.Errorf("%s: accepted %q", name, data)
		}
	}
}

// TestRunKeyMatchesCheckpointManifest pins the factoring the serving
// cache depends on: for every registry experiment, Experiment.RunKey is
// exactly the identity a checkpointed run journals in its manifest.
// Cache keys and journal manifests must never drift apart — they are
// one struct, and this test catches a construction-site divergence.
func TestRunKeyMatchesCheckpointManifest(t *testing.T) {
	cfg := ExpConfig{Seed: 99, Trials: 1}
	for _, e := range Registry() {
		key, err := e.RunKey(cfg)
		if err != nil {
			t.Fatalf("%s: RunKey: %v", e.Name, err)
		}
		if key.Name != e.Name || key.Salt != e.Salt {
			t.Errorf("%s: key names %q salt %d", e.Name, key.Name, key.Salt)
		}
		plan, _, err := e.Plan(cfg)
		if err != nil {
			t.Fatalf("%s: plan: %v", e.Name, err)
		}
		d := cfg.withDefaults()
		m := plan.manifest(plan.Config.withDefaults(), &Checkpoint{Name: e.Name, Salt: e.Salt, Scale: d.Scale})
		if err := m.RunKey.Matches(key); err != nil {
			t.Errorf("%s: manifest key != Experiment.RunKey: %v", e.Name, err)
		}
		if m.RunKey.Encode() != key.Encode() {
			t.Errorf("%s: manifest key encoding != Experiment.RunKey encoding", e.Name)
		}
	}
}

// TestCacheIDMatchesRunKey pins the serving layer's plan-free memory
// key to the run identity, registry-wide: Experiment.CacheID equals the
// CacheID of the RunKey the same configuration plans, and of that key
// decoded back from its encoding (as the disk tier's boot scan reads
// it). Two configurations share a CacheID exactly when they share a
// RunKey encoding, and distinct seeds give distinct IDs.
func TestCacheIDMatchesRunKey(t *testing.T) {
	cfgs := []ExpConfig{
		{},
		{Trials: 5, Scale: 1}, // the zero value's defaults, spelled out
		{Seed: 3, Trials: 2, Kind: rng.KindXoshiro},
		{Seed: 3, Trials: 2, Kind: rng.KindMT19937},
		{Seed: 3, Trials: 2, Kind: rng.KindSplitMix},
		{Seed: 3, Trials: 2, MaxSteps: 12345},
		{Seed: 4, Trials: 2, Scale: 2, Workers: 3},
	}
	for _, e := range Registry() {
		idOf := map[string]string{} // encoded RunKey → CacheID
		encOf := map[string]string{}
		for _, cfg := range cfgs {
			id := e.CacheID(cfg)
			key, err := e.RunKey(cfg)
			if err != nil {
				t.Fatalf("%s %+v: RunKey: %v", e.Name, cfg, err)
			}
			if got, ok := key.CacheID(); !ok || got != id {
				t.Errorf("%s %+v: RunKey.CacheID (%q, %v), Experiment.CacheID %q", e.Name, cfg, got, ok, id)
			}
			enc := key.Encode()
			dk, err := DecodeRunKey([]byte(enc))
			if err != nil {
				t.Fatalf("%s %+v: decode: %v", e.Name, cfg, err)
			}
			if got, ok := dk.CacheID(); !ok || got != id {
				t.Errorf("%s %+v: decoded key's CacheID (%q, %v), want %q", e.Name, cfg, got, ok, id)
			}
			if prev, ok := idOf[enc]; ok && prev != id {
				t.Errorf("%s: one run key has CacheIDs %q and %q", e.Name, prev, id)
			}
			if prev, ok := encOf[id]; ok && prev != enc {
				t.Errorf("%s: CacheID %q names two run keys", e.Name, id)
			}
			idOf[enc], encOf[id] = id, enc
		}
		if e.CacheID(cfgs[0]) != e.CacheID(cfgs[1]) {
			t.Errorf("%s: zero config and its explicit defaults have different CacheIDs", e.Name)
		}
		if a, b := e.CacheID(ExpConfig{Seed: 1}), e.CacheID(ExpConfig{Seed: 2}); a == b {
			t.Errorf("%s: seeds 1 and 2 share CacheID %q", e.Name, a)
		}
	}
}

// TestCacheIDRejectsDriftedKey checks that a run key this binary would
// not plan has no CacheID: a key with an extra point, a changed point
// salt, a changed experiment salt or an unknown name — the shape a key
// written by a build with another plan has — reports false, so a
// result stored under it is never served for the current request.
func TestCacheIDRejectsDriftedKey(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	drift := map[string]func(k *RunKey){
		"extra point":  func(k *RunKey) { k.Points = append(k.Points, ManifestPoint{Key: "extra", Salt: 1, Trials: 1}) },
		"point salt":   func(k *RunKey) { k.Points[0].Salt++ },
		"point trials": func(k *RunKey) { k.Points[0].Trials++ },
		"salt":         func(k *RunKey) { k.Salt++ },
		"unknown name": func(k *RunKey) { k.Name = "no-such-experiment" },
	}
	for name, change := range drift {
		k, err := e.RunKey(ExpConfig{Seed: 7, Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		change(k)
		dk, err := DecodeRunKey([]byte(k.Encode()))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if id, ok := dk.CacheID(); ok {
			t.Errorf("%s: drifted key has CacheID %q", name, id)
		}
	}
}

// TestRunKeyDistinguishesConfigs checks that every request-visible
// configuration knob lands in the key: two configurations that could
// produce different bytes must never share a cache identity.
func TestRunKeyDistinguishesConfigs(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	base := ExpConfig{Seed: 1, Trials: 2, Scale: 1}
	baseKey, err := e.RunKey(base)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]ExpConfig{
		"seed":     {Seed: 2, Trials: 2, Scale: 1},
		"trials":   {Seed: 1, Trials: 3, Scale: 1},
		"scale":    {Seed: 1, Trials: 2, Scale: 2},
		"kind":     {Seed: 1, Trials: 2, Scale: 1, Kind: 2},
		"maxsteps": {Seed: 1, Trials: 2, Scale: 1, MaxSteps: 10},
	}
	for name, cfg := range variants {
		k, err := e.RunKey(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k.Encode() == baseKey.Encode() {
			t.Errorf("changing %s did not change the run key", name)
		}
		if err := k.Matches(baseKey); err == nil {
			t.Errorf("changing %s: Matches reported no difference", name)
		}
	}
	// Workers is deliberately absent: parallelism never splits the cache.
	k, err := e.RunKey(ExpConfig{Seed: 1, Trials: 2, Scale: 1, Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if k.Encode() != baseKey.Encode() {
		t.Error("Workers leaked into the run key")
	}
}

// TestManifestEncodingStable pins the on-disk manifest JSON against the
// RunKey refactor: the embedded key must inline its fields exactly
// where the pre-RunKey struct had them, so journals written before the
// refactor still resume.
func TestManifestEncodingStable(t *testing.T) {
	e, ok := Lookup("eq3")
	if !ok {
		t.Fatal("eq3 not registered")
	}
	cfg := ExpConfig{Seed: 7, Trials: 1}
	dir := t.TempDir()
	ck := filepath.Join(dir, "ckpt")
	if _, err := e.Run(context.Background(), cfg, RunOptions{Checkpoint: &Checkpoint{Dir: ck}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(ck, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"version": 2`, `"name": "eq3"`, `"seed": 7`, `"trials": 1`, `"kind": 1`, `"points"`} {
		if !bytes.Contains(data, []byte(field)) {
			t.Errorf("manifest missing %s:\n%s", field, data)
		}
	}
	// The embedding must not introduce a nested object.
	if bytes.Contains(data, []byte(`"RunKey"`)) || bytes.Contains(data, []byte(`"run_key"`)) {
		t.Errorf("manifest nests the run key instead of inlining it:\n%s", data)
	}
	got, err := ReadCheckpointManifest(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	key, err := e.RunKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.RunKey.Matches(key); err != nil {
		t.Errorf("journaled manifest does not match Experiment.RunKey: %v", err)
	}
}
