package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// get fetches a URL and returns the status, the X-Reprod-Cache header
// and the body.
func get(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Reprod-Cache"), body
}

// directBytes computes the experiment outside the server — the bytes
// every response for the same configuration must equal.
func directBytes(t *testing.T, name string, cfg sim.ExpConfig) []byte {
	t.Helper()
	res, err := sim.RunExperiment(context.Background(), name, cfg)
	if err != nil {
		t.Fatalf("direct %s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColdAndHitByteIdenticalAllExperiments is the serving invariant,
// table-driven over the whole registry: for every experiment, the cold
// (computed) response equals a direct library run byte-for-byte, and
// the second request is a cache hit with the identical body.
func TestColdAndHitByteIdenticalAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registry experiment")
	}
	s, ts := testServer(t, Options{})
	for _, e := range sim.Registry() {
		url := fmt.Sprintf("%s/v1/run?exp=%s&seed=11&trials=1", ts.URL, e.Name)
		status, source, cold := get(t, url)
		if status != http.StatusOK {
			t.Fatalf("%s: cold status %d: %s", e.Name, status, cold)
		}
		if source != "miss" {
			t.Errorf("%s: cold response marked %q, want miss", e.Name, source)
		}
		want := directBytes(t, e.Name, sim.ExpConfig{Seed: 11, Trials: 1})
		if !bytes.Equal(cold, want) {
			t.Errorf("%s: cold response differs from direct run (%d vs %d bytes)", e.Name, len(cold), len(want))
		}
		status, source, hit := get(t, url)
		if status != http.StatusOK || source != "hit" {
			t.Fatalf("%s: second request status %d cache %q, want 200 hit", e.Name, status, source)
		}
		if !bytes.Equal(cold, hit) {
			t.Errorf("%s: cache hit not byte-identical to cold response", e.Name)
		}
	}
	if n, want := s.metrics.CacheHits.Load(), int64(len(sim.Registry())); n != want {
		t.Errorf("cache hits = %d, want %d", n, want)
	}
}

// TestSingleFlightFanIn pins the dedup contract of the acceptance
// criteria: 8 concurrent identical cold requests trigger exactly one
// RunExperiment, and every response carries the same bytes.
func TestSingleFlightFanIn(t *testing.T) {
	s, ts := testServer(t, Options{})
	var runs atomic.Int64
	gate := make(chan struct{})
	inner := s.runExperiment
	s.runExperiment = func(ctx context.Context, e sim.Experiment, cfg sim.ExpConfig) (*sim.Result, error) {
		runs.Add(1)
		<-gate // hold the leader until all followers have arrived
		return inner(ctx, e, cfg)
	}

	const fanIn = 8
	url := ts.URL + "/v1/run?exp=eq3&seed=3&trials=1"
	runs0 := runSecondsCount(t, ts.URL)
	var wg sync.WaitGroup
	bodies := make([][]byte, fanIn)
	statuses := make([]int, fanIn)
	for i := 0; i < fanIn; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	// Hold the gate until every request has passed the cache check
	// (each increments the miss counter before entering the flight), so
	// all 8 are inflight together when the leader runs. A straggler that
	// reaches the flight group after the leader lands re-checks the
	// cache inside its own flight and serves the stored bytes — either
	// way exactly one sweep runs.
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.CacheMisses.Load() < fanIn && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Errorf("%d concurrent identical requests ran %d sweeps, want 1", fanIn, n)
	}
	// The daemon's own run histogram must agree with the hook: it is the
	// counter an operator reads, and it moves only when a run completed.
	if n := runSecondsCount(t, ts.URL) - runs0; n != 1 {
		t.Errorf("reprod_run_seconds_count rose by %d across the %d-way fan-in, want 1", n, fanIn)
	}
	for i := 0; i < fanIn; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs from request 0", i)
		}
	}
	if miss := s.metrics.CacheMisses.Load(); miss != fanIn {
		t.Errorf("cache misses = %d, want %d (all arrived before the bytes existed)", miss, fanIn)
	}
}

// runSecondsCount reads reprod_run_seconds_count from /metrics.
func runSecondsCount(t *testing.T, base string) int {
	t.Helper()
	_, _, body := get(t, base+"/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "reprod_run_seconds_count "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("reprod_run_seconds_count %q: %v", v, err)
			}
			return n
		}
	}
	t.Fatalf("reprod_run_seconds_count missing from /metrics:\n%s", body)
	return 0
}

// TestClientDisconnectCancelsRun pins the cancellation contract under
// serving load: a client that disconnects mid-run cancels the
// underlying run context, the sweep's workers drain without leaking
// goroutines, and a subsequent identical request recomputes the result
// byte-identically.
func TestClientDisconnectCancelsRun(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := testServer(t, Options{})
	started := make(chan struct{})
	runErr := make(chan error, 1)
	inner := s.runExperiment
	var first atomic.Bool
	first.Store(true)
	s.runExperiment = func(ctx context.Context, e sim.Experiment, cfg sim.ExpConfig) (*sim.Result, error) {
		if !first.CompareAndSwap(true, false) {
			return inner(ctx, e, cfg) // the later recompute runs normally
		}
		close(started)
		<-ctx.Done() // hold the run open until the disconnect propagates
		// The sweep now executes under a cancelled context: the
		// RunContext contract says its workers drain promptly and the
		// run fails instead of returning a partial result.
		res, err := inner(ctx, e, cfg)
		runErr <- err
		return res, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/run?exp=eq3&seed=5&trials=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("run never started")
	}
	cancel() // the client disconnects mid-run
	if err := <-done; err == nil {
		t.Error("disconnected request returned a response")
	}
	select {
	case err := <-runErr:
		if err == nil {
			t.Error("sweep under a cancelled context returned no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("disconnect did not cancel the run context")
	}

	// Workers drained: the goroutine count returns to the pre-server
	// baseline plus the httptest accept loop.
	http.DefaultClient.CloseIdleConnections()
	checkGoroutines(t, base+1)

	// A subsequent identical request recomputes — the cancelled run was
	// never cached — and matches a direct run byte-identically.
	status, source, body := get(t, ts.URL+"/v1/run?exp=eq3&seed=5&trials=2")
	if status != http.StatusOK || source != "miss" {
		t.Fatalf("recompute: status %d cache %q, want 200 miss", status, source)
	}
	want := directBytes(t, "eq3", sim.ExpConfig{Seed: 5, Trials: 2})
	if !bytes.Equal(body, want) {
		t.Error("recomputed response not byte-identical to a direct run")
	}
	if n := s.metrics.CacheEntries.Load(); n != 1 {
		t.Errorf("cache entries = %d, want 1 (only the recompute landed)", n)
	}
}

// checkGoroutines waits for the goroutine count to return to baseline —
// a leaked sweep worker or single-flight waiter would hold it up.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<18)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestRateLimit pins the per-client token bucket: with a burst of 2
// and a negligible refill rate, the third request inside the window is
// rejected 429 with a Retry-After header, and the rejection is counted.
func TestRateLimit(t *testing.T) {
	s, ts := testServer(t, Options{RatePerSec: 0.001, RateBurst: 2})
	url := ts.URL + "/v1/run?exp=eq3&seed=1&trials=1"
	for i := 0; i < 2; i++ {
		if status, _, body := get(t, url); status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if n := s.metrics.RateLimited.Load(); n != 1 {
		t.Errorf("rate-limited counter = %d, want 1", n)
	}
}

// TestInflightLimit pins the run limiter: with one slot held open, a
// second distinct request is rejected 503 rather than queued.
func TestInflightLimit(t *testing.T) {
	s, ts := testServer(t, Options{MaxInflightRuns: 1})
	gate := make(chan struct{})
	started := make(chan struct{})
	inner := s.runExperiment
	s.runExperiment = func(ctx context.Context, e sim.Experiment, cfg sim.ExpConfig) (*sim.Result, error) {
		close(started)
		<-gate
		return inner(ctx, e, cfg)
	}
	first := make(chan struct{})
	go func() {
		defer close(first)
		resp, err := http.Get(ts.URL + "/v1/run?exp=eq3&seed=1&trials=1")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started
	status, _, body := get(t, ts.URL+"/v1/run?exp=cor2&seed=1&trials=1")
	close(gate)
	<-first
	if status != http.StatusServiceUnavailable {
		t.Fatalf("second distinct run: status %d: %s, want 503", status, body)
	}
	if n := s.metrics.Saturated.Load(); n != 1 {
		t.Errorf("saturated counter = %d, want 1", n)
	}
}

// TestValidation walks the reject paths: unknown experiment (404), bad
// parameters (400), oversized trials/scale (400), bad RNG kind (400).
func TestValidation(t *testing.T) {
	_, ts := testServer(t, Options{MaxTrials: 10, MaxScale: 4})
	cases := []struct {
		query string
		want  int
	}{
		{"exp=nope", http.StatusNotFound},
		{"exp=", http.StatusNotFound},
		{"exp=eq3&seed=abc", http.StatusBadRequest},
		{"exp=eq3&trials=11", http.StatusBadRequest},
		{"exp=eq3&trials=-1", http.StatusBadRequest},
		{"exp=eq3&scale=5", http.StatusBadRequest},
		{"exp=eq3&max_steps=-2", http.StatusBadRequest},
		{"exp=eq3&kind=lcg", http.StatusBadRequest},
	}
	for _, c := range cases {
		status, _, body := get(t, ts.URL+"/v1/run?"+c.query)
		if status != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.query, status, bytes.TrimSpace(body), c.want)
		}
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: reject body %q is not an error JSON", c.query, body)
		}
	}
}

// A query with both trials and scale malformed is always refused for
// its trials, whatever order the parser might visit them in.
func TestMalformedTrialsAndScaleNameTrials(t *testing.T) {
	_, ts := testServer(t, Options{})
	for i := 0; i < 20; i++ {
		status, _, body := get(t, ts.URL+"/v1/run?exp=eq3&trials=x&scale=y")
		if want := `bad trials \"x\"`; status != http.StatusBadRequest || !strings.Contains(string(body), want) {
			t.Fatalf("request %d: status %d body %s, want 400 naming %s", i, status, bytes.TrimSpace(body), want)
		}
	}
}

// With Options.Logf set, each request logs one line in a fixed format;
// without it, a request builds no line, so it allocates less than one
// whose logger drops the line.
func TestRequestLogLine(t *testing.T) {
	serve := func(h http.Handler) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, benchRunURL, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	var lines []string
	logged := New(Options{Logf: func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}}).Handler()
	serve(logged)
	serve(logged)
	line := regexp.MustCompile(`^reprod: GET /v1/run\?exp=eq3&seed=7&trials=1 client=192\.0\.2\.1 status=200 cache=(miss|hit) dur=[0-9.]+[µm]?s$`)
	if len(lines) != 2 || !line.MatchString(lines[0]) || !line.MatchString(lines[1]) {
		t.Fatalf("log lines %q, want two matching %s", lines, line)
	}

	quiet := New(Options{}).Handler()
	dropped := New(Options{Logf: func(string, ...any) {}}).Handler()
	serve(quiet)
	serve(dropped)
	q := testing.AllocsPerRun(20, func() { serve(quiet) })
	d := testing.AllocsPerRun(20, func() { serve(dropped) })
	if q >= d {
		t.Errorf("a hit allocates %.0f times with no logger, %.0f with one that drops the line; want fewer", q, d)
	}
}

// TestPostRunMatchesGet pins the POST body encoding onto the same
// cache identity as the GET query form.
func TestPostRunMatchesGet(t *testing.T) {
	_, ts := testServer(t, Options{})
	status, _, viaGet := get(t, ts.URL+"/v1/run?exp=eq3&seed=21&trials=1&kind=mt19937")
	if status != http.StatusOK {
		t.Fatalf("GET: status %d", status)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"exp":"eq3","seed":21,"trials":1,"kind":"mt19937"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	viaPost, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: status %d: %s", resp.StatusCode, viaPost)
	}
	if got := resp.Header.Get("X-Reprod-Cache"); got != "hit" {
		t.Errorf("POST after GET marked %q, want hit (same identity)", got)
	}
	if !bytes.Equal(viaGet, viaPost) {
		t.Error("POST and GET responses differ for the same configuration")
	}
}

// TestMetricsHealthzDebug exercises the observability surface.
func TestMetricsHealthzDebug(t *testing.T) {
	_, ts := testServer(t, Options{})
	if status, _, body := get(t, ts.URL+"/healthz"); status != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("healthz: %d %s", status, body)
	}
	get(t, ts.URL+"/v1/run?exp=eq3&seed=2&trials=1")
	get(t, ts.URL+"/v1/run?exp=eq3&seed=2&trials=1")
	status, _, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	for _, want := range []string{
		"reprod_cache_hits_total 1",
		"reprod_cache_misses_total 1",
		"reprod_cache_entries 1",
		`reprod_runs_total{exp="eq3"} 1`,
		"reprod_run_seconds_count 1",
		`reprod_requests_total{code="200"}`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	status, _, body = get(t, ts.URL+"/debug/stats")
	var stats map[string]any
	if status != http.StatusOK || json.Unmarshal(body, &stats) != nil {
		t.Fatalf("debug/stats: %d %s", status, body)
	}
	if n, ok := stats["cache_entries"].(float64); !ok || n != 1 {
		t.Errorf("debug/stats cache_entries = %v, want 1", stats["cache_entries"])
	}
	status, _, body = get(t, ts.URL+"/v1/experiments")
	var infos []ExperimentInfo
	if status != http.StatusOK || json.Unmarshal(body, &infos) != nil {
		t.Fatalf("experiments: %d %s", status, body)
	}
	if len(infos) != len(sim.Registry()) {
		t.Errorf("experiments listed %d entries, registry has %d", len(infos), len(sim.Registry()))
	}
}

// TestDrain pins the graceful-shutdown half: Drain cancels an inflight
// run through its context, and both /healthz and /v1/run answer 503
// while draining.
func TestDrain(t *testing.T) {
	s, ts := testServer(t, Options{})
	started := make(chan struct{})
	runErr := make(chan error, 1)
	s.runExperiment = func(ctx context.Context, e sim.Experiment, cfg sim.ExpConfig) (*sim.Result, error) {
		close(started)
		<-ctx.Done() // simulate a long sweep: run until cancelled
		runErr <- ctx.Err()
		return nil, ctx.Err()
	}
	go func() {
		resp, err := http.Get(ts.URL + "/v1/run?exp=eq3&seed=9&trials=1")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started
	s.Drain()
	select {
	case err := <-runErr:
		if err == nil {
			t.Error("drain did not cancel the inflight run's context")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("inflight run not cancelled by drain")
	}
	if status, _, _ := get(t, ts.URL+"/healthz"); status != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", status)
	}
	if status, _, _ := get(t, ts.URL+"/v1/run?exp=eq3&seed=1&trials=1"); status != http.StatusServiceUnavailable {
		t.Errorf("run while draining: %d, want 503", status)
	}
}
