package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, m := range b.EndToEnd {
		declared = append(declared, m.Name)
	}
	names := layerNames()
	if len(names) != len(b.PerLayer) {
		t.Fatalf("program reports %d per-layer metrics, BENCHMARK.json declares %d", len(names), len(b.PerLayer))
	}
	for i, n := range names {
		if b.PerLayer[i].Name != n[0] || b.PerLayer[i].Unit != n[1] {
			t.Errorf("per-layer metric %d: program %v, BENCHMARK.json %+v", i, n, b.PerLayer[i])
		}
		declared = append(declared, n[0])
	}
	seen := map[string]bool{}
	for _, n := range declared {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, metricName)
		}
		if seen[n] {
			t.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		if _, ok := workloads()[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false},
		{100, 0.99, false},
		{100, 0.9, true},
		{99, 0.9, false},
		{1, 0.5, true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted input
		}
		v, ok := percentile(xs, tc.q)
		if ok != tc.want {
			t.Errorf("n=%d q=%g: reported=%v, want %v", tc.n, tc.q, ok, tc.want)
		}
		if want := math.Ceil(tc.q * float64(tc.n)); v != want {
			t.Errorf("n=%d q=%g: value %g, want nearest rank %g", tc.n, tc.q, v, want)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of no samples was reported")
	}
}

func TestSelfTimes(t *testing.T) {
	const s = 1e9 // spans are in nanoseconds, self times in seconds
	spans := []span{
		{Name: "run", Parent: -1, Start: 0, End: 100},
		{Name: "gen", Parent: 0, Start: 10, End: 30},
		{Name: "walk", Parent: 0, Start: 20, End: 50},  // overlaps gen: counted once
		{Name: "walk", Parent: 0, Start: 60, End: 70},  // disjoint
		{Name: "walk", Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Name: "inner", Parent: 2, Start: 25, End: 45}, // a grandchild does not count for run
	}
	got := selfTimes(spans)
	want := []float64{100 - 40 - 10 - 10, 20, 30 - 20, 10, 30, 20}
	for i := range want {
		if math.Abs(got[i]*s-want[i]) > 1e-6 {
			t.Errorf("span %d (%s): self %g ns, want %g", i, spans[i].Name, got[i]*s, want[i])
		}
	}
}

// encode runs one experiment as the serve workload does and returns its
// Result bytes.
func encode(t *testing.T, exp string, tr *tracer) []byte {
	t.Helper()
	body, err := directRun(context.Background(), serveKey{exp: exp, seed: 7}, tr, -1)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestFlippedByteIsAFailedOperation(t *testing.T) {
	body := encode(t, "rulea", nil)
	g := &gate{ref: digestSet{"rulea": digestOf(body)}}
	if !g.check("rulea", digestOf(body), nil) {
		t.Fatal("identical bytes failed the gate")
	}
	flipped := bytes.Clone(body)
	flipped[len(flipped)/2] ^= 1
	if g.check("rulea", digestOf(flipped), nil) {
		t.Fatal("a flipped byte passed the digest check")
	}
	if g.match("rulea", digestOf(body), digestOf(flipped), nil) {
		t.Fatal("a flipped byte passed the cold-body comparison")
	}
	if g.attempted != 3 || g.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", g.attempted, g.failed)
	}
}

// TestTracingKeepsBytes pins that the layer wrappers change no output
// byte, on a sequential (rulea), a batched (hcube) and a dynamic
// (churncover) experiment.
func TestTracingKeepsBytes(t *testing.T) {
	for _, exp := range []string{"rulea", "hcube", "churncover"} {
		tr := newTracer()
		if plain, traced := encode(t, exp, nil), encode(t, exp, tr); !bytes.Equal(plain, traced) {
			t.Errorf("%s: traced bytes differ from untraced", exp)
		}
		lm := passLayers(tr.spans, selfTimes(tr.spans), 0)
		if lm["gen.calls"] == 0 || lm["walk.steps"] == 0 || lm["sim.units"] == 0 {
			t.Errorf("%s: layers not recorded: %v", exp, lm)
		}
	}
}

// TestMixClassesHoldUnderReorder replays the serve mix against a model
// of the server's LRU, with the two clients' requests reaching it in
// any order reqWindow allows (one client stalls for long stretches),
// and checks that every request finds its key where its class says:
// hot keys in memory, disk and fresh keys not.
func TestMixClassesHoldUnderReorder(t *testing.T) {
	hot, filler, disk := serveKeys(1)
	var lru []string // most recently used last
	touch := func(id string) bool {
		for i, k := range lru {
			if k == id {
				lru = append(append(lru[:i:i], lru[i+1:]...), id)
				return true
			}
		}
		lru = append(lru, id)
		if len(lru) > serveHot+serveFiller {
			lru = lru[1:]
		}
		return false
	}
	for _, k := range append(filler, hot...) {
		touch(k.id())
	}
	r := rand.New(rand.NewSource(1))
	for p := 0; p < 3; p++ {
		reqs := passRequests(1, p, hot, disk)
		win := newReqWindow(len(reqs))
		inflight := [serveClients]int{-1, -1}
		next, answered := 0, 0
		for answered < len(reqs) {
			c := 0
			if r.Intn(20) == 0 { // client 1 moves rarely: it stalls
				c = 1
			}
			if i := inflight[c]; i >= 0 {
				k := reqs[i]
				if inMemory := touch(k.id()); inMemory != (k.class == classHot) {
					t.Fatalf("pass %d request %d (%v, class %d): in memory %v", p, i, k.id(), k.class, inMemory)
				}
				if k.class != classFresh {
					win.done(i)
				}
				inflight[c] = -1
				answered++
				continue
			}
			if next < len(reqs) && win.prefix > next-serveWindow {
				if reqs[next].class == classFresh {
					win.done(next)
				}
				inflight[c] = next
				next++
			}
		}
	}
}
