package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// freeAddr reserves an ephemeral port and releases it for the daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-addr", "999.999.999.999:1"}); err == nil {
		t.Error("unlistenable address accepted")
	}
}

// TestUsageErrorsExitTwo pins the usage-error contract shared with
// sweep/sweepd: invalid flag values are usageErrors (main exits 2), as
// opposed to failed serves (exit 1). A negative -cache-entries used to
// reach the cache layer raw; it must be rejected at the flag boundary.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-cache-entries", "-1"},
		{"-cache-entries", "-256"},
		{"-cache-disk-bytes", "-1"},
		{"-cache-disk-bytes", "0"},
		{"-no-such-flag"},
		{"-cache-disk-bytes", "0", "stray"},
	}
	for _, args := range cases {
		err := run(args)
		if err == nil {
			t.Errorf("run(%q) accepted", args)
			continue
		}
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("run(%q) error %v is not a usageError (would exit 1, want 2)", args, err)
		}
	}
	// The stray argument is reported before any flag value is checked.
	if err := run([]string{"-cache-disk-bytes", "0", "stray"}); err == nil || !strings.Contains(err.Error(), `unexpected argument "stray"`) {
		t.Errorf("run with a stray argument: error %v does not name it", err)
	}
	// An unlistenable address is a failed serve, not a usage error.
	var ue usageError
	if err := run([]string{"-addr", "999.999.999.999:1"}); errors.As(err, &ue) {
		t.Error("listen failure classified as a usage error")
	}
}

// TestCacheEntriesZeroDisablesCaching boots the daemon with
// -cache-entries 0 (the explicit caching-disabled mode) and checks two
// identical requests both compute — byte-identically — with no panic
// and no spurious evictions.
func TestCacheEntriesZeroDisablesCaching(t *testing.T) {
	addr := freeAddr(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-cache-entries", "0", "-drain-timeout", "30s"})
	}()
	base := "http://" + addr
	waitHealthy(t, base)

	var bodies [][]byte
	for i := 0; i < 2; i++ {
		resp, err := http.Get(base + "/v1/run?exp=eq3&seed=7&trials=1")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Reprod-Cache"); got != "miss" {
			t.Errorf("request %d cache=%q, want miss (caching disabled)", i, got)
		}
		bodies = append(bodies, body)
	}
	if string(bodies[0]) != string(bodies[1]) {
		t.Error("two computes of the same configuration differ")
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "reprod_cache_evictions_total 0") {
		t.Error("disabled cache counted evictions")
	}
	stopDaemon(t, done)
}

// waitHealthy polls /healthz until the daemon answers.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("daemon never came up on %s", base)
}

// stopDaemon SIGTERMs the process (the daemon traps it) and waits for
// a clean drain.
func stopDaemon(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

// TestPersistentCacheAcrossRestart is the acceptance scenario end to
// end in-process: compute through the daemon with -cache-dir, drain it
// on SIGTERM, restart it on the same directory, and require the same
// request answered from the disk-warmed cache byte-identically — with
// the restarted daemon's own run histogram proving no sweep re-ran.
func TestPersistentCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")

	fetch := func(base string) (string, []byte) {
		resp, err := http.Get(base + "/v1/run?exp=eq3&seed=7&trials=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run: status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Reprod-Cache"), body
	}
	scrape := func(base string) string {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	// First incarnation: cold compute, spilled to disk.
	addr := freeAddr(t)
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", addr, "-cache-dir", cache, "-drain-timeout", "30s"}) }()
	base := "http://" + addr
	waitHealthy(t, base)
	source, cold := fetch(base)
	if source != "miss" {
		t.Errorf("first request cache=%q, want miss", source)
	}
	if !strings.Contains(scrape(base), "reprod_spill_writes_total 1") {
		t.Error("cold compute did not spill to disk")
	}
	stopDaemon(t, done)

	// Second incarnation, same directory: the warm-booted cache serves
	// the identical bytes without re-running the sweep.
	addr2 := freeAddr(t)
	done2 := make(chan error, 1)
	go func() { done2 <- run([]string{"-addr", addr2, "-cache-dir", cache, "-drain-timeout", "30s"}) }()
	base2 := "http://" + addr2
	waitHealthy(t, base2)
	source, warm := fetch(base2)
	if source != "hit" {
		t.Errorf("restarted request cache=%q, want hit (disk-warmed)", source)
	}
	if string(cold) != string(warm) {
		t.Error("restarted response not byte-identical to the original compute")
	}
	metrics := scrape(base2)
	if !strings.Contains(metrics, "reprod_disk_warm_entries 1") {
		t.Error("warm-boot metric is zero after restart")
	}
	if !strings.Contains(metrics, "reprod_run_seconds_count 0") {
		t.Error("restarted daemon re-ran a sweep (run histogram nonzero)")
	}
	stopDaemon(t, done2)
}

// TestLifecycle boots the daemon, serves a cold request and a byte-
// identical cache hit through it, then delivers SIGTERM and checks the
// drain completes cleanly (run returns nil).
func TestLifecycle(t *testing.T) {
	addr := freeAddr(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-drain-timeout", "30s"})
	}()

	base := "http://" + addr
	var resp *http.Response
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err = http.Get(base + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("daemon never came up on %s: %v", addr, err)
	}
	resp.Body.Close()

	fetch := func() (string, []byte) {
		resp, err := http.Get(base + "/v1/run?exp=eq3&seed=7&trials=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run: status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Reprod-Cache"), body
	}
	source, cold := fetch()
	if source != "miss" {
		t.Errorf("first request cache=%q, want miss", source)
	}
	source, hit := fetch()
	if source != "hit" {
		t.Errorf("second request cache=%q, want hit", source)
	}
	if string(cold) != string(hit) {
		t.Error("cache hit not byte-identical to cold response")
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}

	if _, err := http.Get(fmt.Sprintf("%s/healthz", base)); err == nil {
		t.Error("daemon still serving after drain")
	}
}
