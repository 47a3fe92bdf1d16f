package walk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// dynGoldenCase is one pinned run of the E-process on a churning
// overlay: a graph, a rule, a walk generator, a start vertex and a
// fixed remove/restore script.
type dynGoldenCase struct {
	name  string
	graph func(t *testing.T) *graph.Graph
	rule  Rule
	walk  func() Intner
	start int
	steps int
	// prepare edits the fresh overlay before the first step.
	prepare func(t *testing.T, o *graph.Overlay)
	// churn runs before step i; its coins come from its own generator,
	// never from the walk's.
	churn func(t *testing.T, i int, o *graph.Overlay, c *rand.Rand)
	// resetAt, when positive, Resets the walk to start before that step.
	resetAt int
	want    string
}

func dynGoldenRegular(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RandomRegular(rand.New(rand.NewSource(61)), 48, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// dynGoldenMulti is a multigraph with two loops and parallel edges,
// vertex 6 being reachable only through a loop-carrying vertex.
func dynGoldenMulti(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.MustFromEdges(7, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 1}, {U: 1, V: 2}, {U: 2, V: 3},
		{U: 2, V: 3}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 4}, {U: 4, V: 5},
		{U: 5, V: 0}, {U: 5, V: 6}, {U: 6, V: 4}, {U: 0, V: 3},
	})
	return g
}

// dynGoldenScript removes a uniformly drawn live edge every third step
// and restores a uniformly drawn removed edge every fifth, or every
// step while more than a quarter of the edges are down.
func dynGoldenScript(t *testing.T, i int, o *graph.Overlay, c *rand.Rand) {
	if i%3 == 0 {
		if err := o.RemoveEdge(o.LiveEdgeAt(c.Intn(o.LiveEdges()))); err != nil {
			t.Fatal(err)
		}
	}
	if (i%5 == 0 || 3*o.RemovedEdges() > o.LiveEdges()) && o.RemovedEdges() > 0 {
		if err := o.RestoreEdge(o.RemovedEdgeAt(c.Intn(o.RemovedEdges()))); err != nil {
			t.Fatal(err)
		}
	}
}

func dynGoldenCases() []dynGoldenCase {
	mathRand := func(seed int64) func() Intner {
		return func() Intner { return rand.New(rand.NewSource(seed)) }
	}
	xoshiro := func(seed uint64) func() Intner {
		return func() Intner { return rng.NewXoshiro256(seed) }
	}
	isolate := func(v int) func(t *testing.T, o *graph.Overlay) {
		return func(t *testing.T, o *graph.Overlay) {
			done := map[uint32]bool{}
			for _, h := range o.Base().Adj(v) {
				if done[h.ID] {
					continue // the second half of a loop
				}
				done[h.ID] = true
				if err := o.RemoveEdge(int(h.ID)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// restoreLate keeps the start isolated for the first steps (lazy
	// stays), then brings every removed edge back one per step.
	restoreLate := func(t *testing.T, i int, o *graph.Overlay, c *rand.Rand) {
		if i >= 6 && o.RemovedEdges() > 0 {
			if err := o.RestoreEdge(o.RemovedEdgeAt(c.Intn(o.RemovedEdges()))); err != nil {
				t.Fatal(err)
			}
		}
		if i >= 40 {
			dynGoldenScript(t, i, o, c)
		}
	}
	return []dynGoldenCase{
		{name: "regular4/uniform", graph: dynGoldenRegular, walk: mathRand(71), steps: 900,
			churn: dynGoldenScript, resetAt: 500,
			want: "67cffee7fec268fdec258819db8b5e5f66e7ab38ba3e36324430038cdf86751c"},
		{name: "regular4/uniform-xoshiro", graph: dynGoldenRegular, walk: xoshiro(72), start: 5, steps: 900,
			churn: dynGoldenScript,
			want:  "6055765a00df849a9ed12ed73b5ae512e779d0d21015660e6b2bd4ead2dfe87b"},
		{name: "regular4/toward-unvisited", graph: dynGoldenRegular, rule: TowardUnvisited{}, walk: mathRand(73), steps: 900,
			churn: dynGoldenScript, resetAt: 500,
			want: "9e54bfcde792093d44f2a154d45b4da89cafbb8c3135f39206b984a7d65b7bbd"},
		{name: "multigraph/uniform", graph: dynGoldenMulti, walk: mathRand(74), start: 1, steps: 400,
			churn: dynGoldenScript,
			want:  "80bf5e70edbc872524d93117ae0c3c1ad2eb94d79e0df7b27f48b87edc9c8a9c"},
		{name: "multigraph/toward-unvisited", graph: dynGoldenMulti, rule: TowardUnvisited{}, walk: xoshiro(75), start: 4, steps: 400,
			churn: dynGoldenScript,
			want:  "482fe285cac6469d5ba417b2d3138757f26554c308c07153409d1d2a9c4caa25"},
		{name: "isolated-start/uniform", graph: dynGoldenMulti, walk: mathRand(76), start: 6, steps: 300,
			prepare: isolate(6), churn: restoreLate,
			want: "d0a2a5243011147458fc59c5bb4303305a9232a99d29affe769c2a1d2d0eb50d"},
		{name: "isolated-start/toward-unvisited", graph: dynGoldenRegular, rule: TowardUnvisited{}, walk: mathRand(77), start: 9, steps: 300,
			prepare: isolate(9), churn: restoreLate,
			want: "92526de0d9e9cb2119cc4050f5c321fb68434333d3e06d12e98e9401e6f1dcba"},
	}
}

// dynGoldenDigest runs c and hashes its (edgeID, vertex) trajectory,
// then the final Current, Stats, every BlueDegree and UnvisitedEdgeIDs.
func dynGoldenDigest(t *testing.T, c dynGoldenCase) string {
	g := c.graph(t)
	o := graph.NewOverlay(g)
	if c.prepare != nil {
		c.prepare(t, o)
	}
	e := NewEProcessOn(o, c.walk(), c.rule, c.start)
	churn := rand.New(rand.NewSource(int64(len(c.name)) * 1009))
	h := sha256.New()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for i := 0; i < c.steps; i++ {
		if c.resetAt > 0 && i == c.resetAt {
			e.Reset(c.start)
		}
		c.churn(t, i, o, churn)
		id, v := e.Step()
		put(int64(id))
		put(int64(v))
	}
	st := e.Stats()
	put(int64(e.Current()))
	put(st.RedSteps)
	put(st.BlueSteps)
	put(st.BluePhases)
	put(st.RedPhases)
	for v := 0; v < g.N(); v++ {
		put(int64(e.BlueDegree(v)))
	}
	ids := e.UnvisitedEdgeIDs()
	put(int64(len(ids)))
	for _, id := range ids {
		put(int64(id))
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("%s: overlay invalid after run: %v", c.name, err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDynEProcessGolden pins the dynamic E-process under churn, for the
// fused Uniform draw and a generic rule that reads BlueDegree. Any
// change to candidate order, draw count, Reset or lazy-stay handling on
// the dynamic path moves the digests.
func TestDynEProcessGolden(t *testing.T) {
	for _, c := range dynGoldenCases() {
		if got := dynGoldenDigest(t, c); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
