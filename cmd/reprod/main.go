// Command reprod is the resident experiment-serving daemon: it
// promotes the library from batch CLIs to a long-running HTTP/JSON
// service that answers experiment requests from an exact result cache.
// A cached response is byte-identical to a recomputed one — results
// are pure functions of the request's (experiment, seed, trials,
// scale, RNG kind, step budget), the cache is keyed by exactly that
// identity (sim.RunKey, the checkpoint manifest key), and N concurrent
// identical requests cost one sweep (single-flight).
//
//	reprod -addr :7700
//	curl 'http://localhost:7700/v1/run?exp=eq3&seed=2012&trials=3'
//	curl http://localhost:7700/v1/experiments
//	curl http://localhost:7700/metrics
//
// With -cache-dir the cache gains a persistent tier: response bytes
// are spilled to disk keyed by their RunKey (atomic temp+fsync+rename
// writes, a -cache-disk-bytes budget with LRU eviction), the in-memory
// LRU is warmed from the store on boot, and a memory miss consults
// disk before re-running the sweep — so a restarted daemon answers
// previously-computed requests byte-identically without recomputing.
// Corrupt, truncated or key-mismatched spill files are rejected with a
// diagnostic, deleted, and recomputed; an unusable directory degrades
// the daemon to memory-only rather than failing the boot.
//
// Admission control: a per-client token bucket (-rate/-burst, 429 over
// budget), an inflight-run limiter (-inflight, 503 when saturated), a
// per-run wall-clock cap (-run-timeout, 504), and a connection limit
// (-max-conns). A disconnected client's run is cancelled through the
// context and its sweep workers drain leak-free.
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting,
// flips /healthz to 503, cancels inflight runs via their contexts, and
// exits 0 once the handlers return.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reprod:", err)
		var ue usageError
		if errors.Is(err, flag.ErrHelp) || errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks a command-line mistake — an invalid flag value as
// opposed to a failed serve. main exits 2 for usage errors (the
// conventional usage exit code, shared with sweep/sweepd), 1 otherwise.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func run(args []string) error {
	fs := flag.NewFlagSet("reprod", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7700", "listen address")
		cacheSize  = fs.Int("cache-entries", 256, "in-memory result cache capacity (0 = memory caching disabled)")
		cacheDir   = fs.String("cache-dir", "", "persistent result store directory (empty = memory-only)")
		cacheDisk  = fs.Int64("cache-disk-bytes", 256<<20, "byte budget for the persistent store (requires -cache-dir)")
		rate       = fs.Float64("rate", 10, "per-client sustained requests/second on /v1/run (0 = unlimited)")
		burst      = fs.Int("burst", 20, "per-client burst allowance")
		inflight   = fs.Int("inflight", 0, "max concurrent experiment runs (0 = GOMAXPROCS)")
		runTimeout = fs.Duration("run-timeout", 5*time.Minute, "wall-clock cap per run (0 = none)")
		workers    = fs.Int("workers", 0, "sweep workers per run (0 = GOMAXPROCS; never part of the cache identity)")
		maxTrials  = fs.Int("max-trials", 100, "largest accepted trials value")
		maxScale   = fs.Int("max-scale", 100, "largest accepted scale value")
		maxConns   = fs.Int("max-conns", 1024, "max simultaneous client connections")
		drainWait  = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline before forcing exit")
		verbose    = fs.Bool("v", false, "log every request on stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	switch {
	case fs.NArg() > 0:
		return usagef("unexpected argument %q: reprod takes only flags", fs.Arg(0))
	case *cacheSize < 0:
		return usagef("-cache-entries %d is negative (0 disables memory caching)", *cacheSize)
	case *cacheDisk < 0:
		return usagef("-cache-disk-bytes %d is negative", *cacheDisk)
	case *cacheDisk == 0:
		return usagef("-cache-disk-bytes 0 would evict every spill; omit the flag for the default budget")
	}

	var logf func(string, ...any) // nil: the server logs nothing
	if *verbose {
		logf = log.Printf
	}
	// Flag 0 = "caching disabled", expressed to serve.Options as a
	// negative capacity (its 0 means "default").
	entries := *cacheSize
	if entries == 0 {
		entries = -1
	}
	s := serve.New(serve.Options{
		CacheEntries:    entries,
		CacheDir:        *cacheDir,
		CacheDiskBytes:  *cacheDisk,
		RatePerSec:      *rate,
		RateBurst:       *burst,
		MaxInflightRuns: *inflight,
		RunTimeout:      *runTimeout,
		RunWorkers:      *workers,
		MaxTrials:       *maxTrials,
		MaxScale:        *maxScale,
		Logf:            logf,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *maxConns > 0 {
		ln = serve.LimitListener(ln, *maxConns)
	}
	srv := &http.Server{Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Printf("reprod: serving on %s (cache %d entries, %g req/s per client, %s run timeout)",
		ln.Addr(), *cacheSize, *rate, *runTimeout)
	if dir, active, derr := s.DiskCache(); dir != "" {
		if active {
			log.Printf("reprod: persistent cache at %s (budget %d bytes)", dir, *cacheDisk)
		} else {
			log.Printf("reprod: persistent cache at %s unusable (%v); serving memory-only", dir, derr)
		}
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop routing (healthz 503), cancel inflight runs
	// through their contexts — the sweeps drain leak-free per the
	// cancellation contract — and let Shutdown reap the handlers.
	log.Printf("reprod: draining on signal")
	s.Drain()
	sctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("reprod: drained cleanly")
	return nil
}
