// Command sweepd runs a sweep as a fault-tolerant fleet: one
// coordinator process hands out lease blocks of the selected registry
// experiments' (point, trial) unit spaces over HTTP, and any number of
// worker processes — joining and dying at any time — journal the blocks
// into a shared work directory. When the unit space is covered, the
// coordinator merges the journals and prints the canonical tables,
// byte-identical to a plain single-process `sweep` run at the same
// configuration.
//
//	sweepd coordinate -exp eq3,cor2 -trials 5 -dir work -addr :7600 -json out/
//	sweepd work -addr http://host:7600 -dir work       # on each machine
//
// The coordinator and workers must share the work directory (same
// machine or a shared filesystem): the per-block checkpoint journals in
// it are both the hand-off medium and the only durable state. The
// coordinator keeps no other state — kill it and rerun the same
// `coordinate` command and it recovers completed blocks from the
// journals; workers ride out the restart by retrying with jittered
// exponential backoff. A worker that dies mid-block loses nothing but
// its in-flight units: its lease expires (no heartbeat), the block is
// reassigned, and the next holder resumes the journal. Duplicate
// execution of a unit is safe by construction — every measurement is a
// pure function of the master seed, so recomputed units journal
// identical bytes, and the merge verifies overlapping records agree.
//
// Both modes drain gracefully on SIGINT/SIGTERM: workers finish and
// journal their in-flight units before exiting, and a restarted run
// resumes from the journals.
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
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks a command-line mistake; main exits 2 so fleet
// scripts can tell a bad invocation from a failed run.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func run(args []string) error {
	if len(args) < 1 {
		return usagef("need a mode: `sweepd coordinate ...` or `sweepd work ...`")
	}
	switch args[0] {
	case "coordinate":
		return coordinate(args[1:])
	case "work":
		return work(args[1:])
	default:
		return usagef("unknown mode %q (want coordinate or work)", args[0])
	}
}

// selectExperiments resolves -exp against the registry, as cmd/sweep
// does.
func selectExperiments(expList string) ([]sim.Experiment, error) {
	if expList == "all" {
		return sim.Registry(), nil
	}
	var selected []sim.Experiment
	for _, name := range strings.Split(expList, ",") {
		name = strings.TrimSpace(name)
		e, ok := sim.Lookup(name)
		if !ok {
			return nil, usagef("unknown experiment %q (known: %s)", name, strings.Join(sim.Names(), ", "))
		}
		selected = append(selected, e)
	}
	return selected, nil
}

func coordinate(args []string) error {
	fs := flag.NewFlagSet("sweepd coordinate", flag.ContinueOnError)
	var (
		expList = fs.String("exp", "all", "comma-separated experiment names, or 'all'")
		scale   = fs.Int("scale", 1, "problem size multiplier")
		trials  = fs.Int("trials", 5, "trials per point")
		seed    = fs.Uint64("seed", 2012, "master seed")
		workers = fs.Int("workers", 0, "merge-phase parallel workers (0 = GOMAXPROCS)")
		dir     = fs.String("dir", "", "shared work directory (required; block journals live under it)")
		addr    = fs.String("addr", "127.0.0.1:7600", "listen address")
		block   = fs.Int("block", 16, "target (point, trial) units per lease block")
		lease   = fs.Duration("lease", 15*time.Second, "lease TTL; workers heartbeat at TTL/3")
		fails   = fs.Int("max-fails", 3, "per-block failure budget before the run aborts")
		linger  = fs.Duration("linger", 2*time.Second, "keep answering 'done' to workers this long after the merge")
		jsonDir = fs.String("json", "", "also write one JSON Result per experiment into this directory")
		verbose = fs.Bool("v", false, "log lease traffic on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usagef("unexpected argument %q: %s takes only flags", fs.Arg(0), fs.Name())
	}
	if *dir == "" {
		return usagef("coordinate needs -dir: the shared work directory holds the block journals")
	}
	selected, err := selectExperiments(*expList)
	if err != nil {
		return err
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}
	cfg := sim.ExpConfig{Seed: *seed, Trials: *trials, Scale: *scale, Workers: *workers}
	c, err := dist.New(dist.Options{
		Experiments:   selected,
		Config:        cfg,
		Root:          *dir,
		BlockUnits:    *block,
		LeaseTTL:      *lease,
		MaxBlockFails: *fails,
		Logf:          logf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: c.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logf("sweepd: coordinating %d blocks on %s (work dir %s)", c.Blocks(), ln.Addr(), *dir)

	waitErr := c.Wait(ctx)
	if waitErr != nil {
		// Interrupted or aborted: shut the server down and report. The
		// journals persist; rerunning the same command resumes.
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		select {
		case err := <-serveErr:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				return errors.Join(waitErr, err)
			}
		default:
		}
		return waitErr
	}

	// Unit space covered: merge while still answering Done to workers,
	// then linger so the last pollers hear it before the listener goes
	// away.
	var opts sim.RunOptions
	if *verbose {
		opts = sim.StderrProgress("merge")
	}
	results, err := c.Merge(ctx, opts)
	if err != nil {
		return err
	}
	for i, res := range results {
		if i > 0 {
			fmt.Println()
		}
		if err := res.Table.WriteText(os.Stdout); err != nil {
			return err
		}
		for _, note := range res.Notes {
			fmt.Println(note)
		}
		if *jsonDir != "" {
			if err := res.WriteFile(filepath.Join(*jsonDir, res.Name+".json")); err != nil {
				return err
			}
		}
	}
	if err := sleepCtxIgnore(ctx, *linger); err != nil {
		return nil // interrupted during linger: output already written
	}
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(sctx)
	return nil
}

// sleepCtxIgnore sleeps for d or until ctx cancels.
func sleepCtxIgnore(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func work(args []string) error {
	fs := flag.NewFlagSet("sweepd work", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "coordinator base URL, e.g. http://host:7600 (required)")
		dir      = fs.String("dir", "", "shared work directory (required; must resolve to the same files the coordinator sees)")
		id       = fs.String("id", "", "worker name in leases and logs (default host:pid)")
		workers  = fs.Int("workers", 0, "per-block sim workers (0 = GOMAXPROCS)")
		hb       = fs.Duration("heartbeat", 0, "heartbeat cadence (0 = lease TTL/3)")
		patience = fs.Duration("patience", 60*time.Second, "give up after the coordinator is unreachable this long")
		seed     = fs.Uint64("jitter-seed", 0, "retry-jitter seed (0 = derive from pid)")
		verbose  = fs.Bool("v", false, "log lease and progress traffic on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usagef("unexpected argument %q: %s takes only flags", fs.Arg(0), fs.Name())
	}
	if *addr == "" {
		return usagef("work needs -addr: the coordinator's base URL")
	}
	if *dir == "" {
		return usagef("work needs -dir: the shared work directory")
	}
	if !strings.Contains(*addr, "://") {
		*addr = "http://" + *addr
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := dist.WorkerOptions{
		Coordinator: strings.TrimRight(*addr, "/"),
		Root:        *dir,
		ID:          *id,
		SimWorkers:  *workers,
		Heartbeat:   *hb,
		Patience:    *patience,
		Seed:        *seed,
	}
	if opts.Seed == 0 {
		opts.Seed = uint64(os.Getpid())
	}
	if *verbose {
		opts.Logf = log.Printf
		opts.OnUnit = func(exp string, block, done, total int) {
			log.Printf("sweepd: %s block %d: %d/%d units", exp, block, done, total)
		}
	}
	err := dist.NewWorker(opts).Run(ctx)
	if errors.Is(err, context.Canceled) {
		// Graceful drain on SIGINT/SIGTERM: in-flight units were
		// journaled; the lease is released or expires.
		fmt.Fprintln(os.Stderr, "sweepd: drained on signal; journals are resumable")
		return nil
	}
	return err
}
