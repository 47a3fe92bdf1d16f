package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/rng"
)

// RunKey is the canonical identity of one experiment run: everything
// that determines the derived seeds and the unit space — master seed,
// registry name, salt namespace, scale, trials, RNG kind, step budget,
// and the plan's full point/arm shape. Workers is deliberately absent:
// results, tables, checkpoint journals and JSON encodings are all
// workers-independent, so two runs with equal RunKeys produce
// byte-identical output whatever their parallelism.
//
// The same key plays two roles. Prefixed with a format version it is
// the checkpoint manifest (CheckpointManifest embeds RunKey), pinning
// which run a journal belongs to; and its canonical Encode() string is
// the disk-tier key of the serving layer's result cache
// (internal/serve), which is sound precisely because cache identity
// equals determinism identity. The two must never drift apart — they
// are one struct, and the golden test in runkey_test.go pins the
// encoding. The serving layer's memory tier keys by the shorter
// CacheID, which names the same run without planning it.
type RunKey struct {
	// Name and Salt are the registry name and salt namespace of the
	// experiment (empty/zero for bare SweepPlan runs); Scale is the
	// experiment-level problem-size multiplier.
	Name  string `json:"name,omitempty"`
	Salt  uint64 `json:"salt,omitempty"`
	Scale int    `json:"scale,omitempty"`
	// Seed, Trials, Kind and MaxSteps are the plan Config (after
	// defaults) that derived every unit's generators.
	Seed     uint64 `json:"seed"`
	Trials   int    `json:"trials"`
	Kind     int    `json:"kind"`
	MaxSteps int64  `json:"max_steps,omitempty"`
	// Points is the plan's full point shape in canonical order; with
	// the per-point trial counts it determines the unit space that
	// journal record indexes refer to.
	Points []ManifestPoint `json:"points"`
}

// runKey builds the plan's identity under cfg (defaults applied) with
// the given registry stamps — the shared constructor of checkpoint
// manifests (SweepPlan.manifest) and serving cache keys
// (Experiment.RunKey).
func (pl *SweepPlan) runKey(cfg Config, name string, salt uint64, scale int) RunKey {
	k := RunKey{
		Name:     name,
		Salt:     salt,
		Scale:    scale,
		Seed:     cfg.Seed,
		Trials:   cfg.Trials,
		Kind:     int(cfg.Kind),
		MaxSteps: cfg.MaxSteps,
	}
	for i := range pl.Points {
		pt := &pl.Points[i]
		mp := ManifestPoint{Key: pt.Key, Salt: pt.Salt, Trials: pt.trials(cfg)}
		for _, a := range pt.Arms {
			mp.Arms = append(mp.Arms, a.Name)
		}
		k.Points = append(k.Points, mp)
	}
	return k
}

// RunKey plans the experiment under cfg and returns its canonical run
// key — exactly the identity a checkpoint manifest of the same run
// would pin (minus the format version). The serving layer keys its
// disk tier by Encode() of this value, so a spilled response can never
// be served for a configuration whose journal the durable-run layer
// would reject.
func (e Experiment) RunKey(cfg ExpConfig) (*RunKey, error) {
	plan, _, err := e.Plan(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: plan: %w", e.Name, err)
	}
	d := cfg.withDefaults()
	k := plan.runKey(plan.Config.withDefaults(), e.Name, e.Salt, d.Scale)
	return &k, nil
}

// CacheID names the run of e under cfg without planning it: the
// registry name plus the defaults-applied seed, trials, scale, RNG kind
// and step budget — every input of Plan but Workers — rendered as
// "<name>?seed=S&trials=T&scale=C&kind=K&max_steps=M". The five fields
// after the name are fixed, so distinct inputs give distinct strings,
// and since the plan is a pure function of those inputs, two
// configurations share a CacheID exactly when this binary plans them
// to one RunKey. The serving layer keys its memory cache and
// single-flight by it, so a memory hit costs no planning.
func (e Experiment) CacheID(cfg ExpConfig) string {
	d := cfg.withDefaults()
	c := d.config().withDefaults()
	var buf [128]byte // stays on the stack: only the string escapes
	b := append(buf[:0], e.Name...)
	b = append(b, "?seed="...)
	b = strconv.AppendUint(b, c.Seed, 10)
	b = append(b, "&trials="...)
	b = strconv.AppendInt(b, int64(c.Trials), 10)
	b = append(b, "&scale="...)
	b = strconv.AppendInt(b, int64(d.Scale), 10)
	b = append(b, "&kind="...)
	b = strconv.AppendInt(b, int64(c.Kind), 10)
	b = append(b, "&max_steps="...)
	b = strconv.AppendInt(b, c.MaxSteps, 10)
	return string(b)
}

// CacheID returns the Experiment.CacheID of the run k names, and
// whether this binary still plans that run to exactly k. It reports
// false for a key of an unknown experiment, and for a key written by a
// build whose plan for the same request differed (another salt, point,
// arm or per-point trial count): a result stored under such a key is
// not what this binary computes, so it must never be found under the
// request's CacheID. It plans the run once.
func (k *RunKey) CacheID() (string, bool) {
	e, ok := Lookup(k.Name)
	if !ok {
		return "", false
	}
	cfg := ExpConfig{Seed: k.Seed, Trials: k.Trials, Scale: k.Scale, Kind: rng.Kind(k.Kind), MaxSteps: k.MaxSteps}
	cur, err := e.RunKey(cfg)
	if err != nil || cur.Encode() != k.Encode() {
		return "", false
	}
	return e.CacheID(cfg), true
}

// Encode returns the key's canonical string form: compact JSON with
// the struct's fixed field order. It is a stable encoding — pinned by
// the golden test in runkey_test.go — so keys persisted or compared
// across processes (result caches, log lines) never drift from the
// manifest identity of the same run.
func (k *RunKey) Encode() string {
	data, err := json.Marshal(k)
	if err != nil {
		// Every field is a plain scalar, string or slice thereof;
		// marshalling cannot fail.
		panic(fmt.Sprintf("sim: RunKey encode: %v", err))
	}
	return string(data)
}

// DecodeRunKey parses an encoded run key — the canonical Encode()
// form persisted outside the process (serving-layer spill headers, log
// lines) — with the same strictness as checkpoint manifests: unknown
// fields, trailing bytes and implausible shapes are all errors. A key
// read back from disk must be validated here before it is trusted as a
// cache identity; a hash or filename derived from it is never
// authoritative on its own.
func DecodeRunKey(data []byte) (*RunKey, error) {
	var k RunKey
	if err := decodeStrict(bytes.NewReader(data), &k); err != nil {
		return nil, fmt.Errorf("run key: %w", err)
	}
	if err := k.checkShape(); err != nil {
		return nil, fmt.Errorf("run key: %w", err)
	}
	return &k, nil
}

// checkShape rejects keys that could not have been produced by runKey,
// whatever plan they came from.
func (k *RunKey) checkShape() error {
	switch {
	case k.Trials < 1:
		return fmt.Errorf("implausible trial count %d", k.Trials)
	case k.Kind < 0:
		return fmt.Errorf("implausible RNG kind %d", k.Kind)
	case k.MaxSteps < 0:
		return fmt.Errorf("implausible step budget %d", k.MaxSteps)
	case len(k.Points) == 0:
		return errors.New("no points")
	}
	for i, pt := range k.Points {
		if pt.Key == "" {
			return fmt.Errorf("point %d has an empty key", i)
		}
		if pt.Trials < 1 {
			return fmt.Errorf("point %q has implausible trial count %d", pt.Key, pt.Trials)
		}
	}
	return nil
}

// Matches reports the first difference between k and want — the refusal
// diagnostic of resume/merge validation and the identity check of the
// serving cache.
func (k *RunKey) Matches(want *RunKey) error {
	switch {
	case k.Name != want.Name:
		return fmt.Errorf("journal is for experiment %q, current run is %q", k.Name, want.Name)
	case k.Salt != want.Salt:
		return fmt.Errorf("journal salt namespace %d, current run %d", k.Salt, want.Salt)
	case k.Seed != want.Seed:
		return fmt.Errorf("journal master seed %d, current run %d", k.Seed, want.Seed)
	case k.Trials != want.Trials:
		return fmt.Errorf("journal trials %d, current run %d", k.Trials, want.Trials)
	case k.Scale != want.Scale:
		return fmt.Errorf("journal scale %d, current run %d", k.Scale, want.Scale)
	case k.Kind != want.Kind:
		return fmt.Errorf("journal RNG kind %d, current run %d", k.Kind, want.Kind)
	case k.MaxSteps != want.MaxSteps:
		return fmt.Errorf("journal step budget %d, current run %d", k.MaxSteps, want.MaxSteps)
	case len(k.Points) != len(want.Points):
		return fmt.Errorf("journal has %d points, current plan %d", len(k.Points), len(want.Points))
	}
	for i := range want.Points {
		g, w := k.Points[i], want.Points[i]
		if g.Key != w.Key || g.Salt != w.Salt || g.Trials != w.Trials || !slices.Equal(g.Arms, w.Arms) {
			return fmt.Errorf("point %d is %q (salt %d, %d trials, arms %v) in the journal but %q (salt %d, %d trials, arms %v) in the current plan",
				i, g.Key, g.Salt, g.Trials, g.Arms, w.Key, w.Salt, w.Trials, w.Arms)
		}
	}
	return nil
}
