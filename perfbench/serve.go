package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
)

// The serve workload's key space and mix. No recorded reprod traffic
// exists, so the mix is synthetic. It is set by one requirement: the
// cache, store and HTTP paths are why the workload exists, so doubling
// the cost of the memory-hit path or of the disk-hit path must move the
// pass's wall time by more than the 0.25 bound. Cold runs, whose
// generation and walking the registry and walks workloads measure, are
// kept a smaller share. On a 2-vCPU host a memory hit takes about 60 µs
// at the client, a disk hit about 110 µs and a cold run of a scale-1
// serveExps key about 10 ms, so a block of the mix has 2 memory hits per
// disk hit and one cold run per 140 disk hits: hits and disk hits then
// take about 0.4 of the clients' time each and cold runs about 0.2.
// Every run reports the shares it measured in its run record
// ("class_share"), and the traced run as serve.share_hit,
// serve.share_disk and serve.share_cold.
//
// The memory LRU holds serveHot + serveFiller entries. Set-up spills
// every key to the cache dir, the disk keys first and the hot keys
// last, so the boot scan warms exactly the hot and filler keys into
// memory and the disk keys live only on disk. A block of a pass is
// serveBlockDisk groups of serveHotPerDisk hot keys (round robin over
// serveHot) and one disk key (cycling through serveDisk keys), with one
// fresh seed (a cold run plus a spill write) in the middle.
//
// Every reply's X-Reprod-Cache source is checked against its class, so
// the LRU must hold every hot key and no disk key whatever order the
// two clients' requests reach the server in. A request is sent only
// once every request serveWindow or more places before it has been
// answered (see reqWindow), so between the server's lookups of
// requests j < i it handles only requests in (j-serveWindow,
// i+serveWindow). For two requests of a hot key, i-j is
// serveHot/serveHotPerDisk*(serveHotPerDisk+1) = 18: the server sees
// the other 11 hot keys, at most (18+2*serveWindow)/3+1 = 18 disk keys
// and a few fresh ones in between, fewer than the LRU's 48, so a hot key
// is never evicted. For two requests of a disk key, i-j is 3*serveDisk
// and at least serveDisk-serveWindow other disk keys come in between,
// more than 48, so a disk key is always evicted before it returns.
const (
	serveHot        = 12
	serveFiller     = 36
	serveDisk       = 200
	serveBlocks     = 10
	serveBlockDisk  = 140
	serveHotPerDisk = 2
	serveClients    = 2
	serveWindow     = 16
	// serveBoots boots give the median boot time: one boot takes a few
	// milliseconds, too few to time steadily once.
	serveBoots = 101
	// serveReplayPasses traced passes have their cold keys re-run
	// through the layer wrappers; a fixed count keeps the per-layer
	// counts equal from run to run.
	serveReplayPasses = 10
	// serveTail samples of each latency class give a p99 with ten
	// samples beyond it; a traced run measures until it has them.
	serveTail = 1000
)

// Requests of each class in one pass.
const (
	passHot   = serveBlocks * serveBlockDisk * serveHotPerDisk
	passDisk  = serveBlocks * serveBlockDisk
	passFresh = serveBlocks
)

type reqClass int

const (
	classHot reqClass = iota
	classDisk
	classFresh
)

// serveKey is one request of the mix: an experiment at scale 1 with the
// default trials under a master seed.
type serveKey struct {
	exp   string
	seed  uint64
	class reqClass
}

func (k serveKey) id() string { return fmt.Sprintf("%s/%d", k.exp, k.seed) }

// keySeed derives the master seed of key i of a domain (hot, filler,
// disk or a fresh pass) from the workload seed.
func keySeed(seed uint64, domain, i int) uint64 {
	return masterSeed(masterSeed(seed) + uint64(domain)<<32 + uint64(i))
}

func keySet(seed uint64, domain, n int, class reqClass) []serveKey {
	keys := make([]serveKey, n)
	for i := range keys {
		keys[i] = serveKey{serveExps[i%len(serveExps)], keySeed(seed, domain, i), class}
	}
	return keys
}

const (
	domainHot = iota + 1
	domainFiller
	domainDisk
	domainFresh // + pass index
)

// serveKeys returns the hot, filler and disk keys of a workload seed.
func serveKeys(seed uint64) (hot, filler, disk []serveKey) {
	return keySet(seed, domainHot, serveHot, classHot),
		keySet(seed, domainFiller, serveFiller, classHot),
		keySet(seed, domainDisk, serveDisk, classDisk)
}

// serveSetUpKeys lists every key set-up spills, oldest first.
func serveSetUpKeys(seed uint64) []serveKey {
	hot, filler, disk := serveKeys(seed)
	return append(append(disk, filler...), hot...)
}

// passRequests lays out pass p of the mix.
func passRequests(seed uint64, p int, hot, disk []serveKey) []serveKey {
	fresh := keySet(seed, domainFresh+p, passFresh, classFresh)
	reqs := make([]serveKey, 0, passHot+passDisk+passFresh)
	nh, nd := p*passHot, p*passDisk
	for b := 0; b < serveBlocks; b++ {
		for j := 0; j < serveBlockDisk; j++ {
			if j == serveBlockDisk/2 {
				reqs = append(reqs, fresh[b])
			}
			for i := 0; i < serveHotPerDisk; i++ {
				reqs = append(reqs, hot[nh%len(hot)])
				nh++
			}
			reqs = append(reqs, disk[nd%len(disk)])
			nd++
		}
	}
	return reqs
}

// liveServer is internal/serve booted on loopback TCP.
type liveServer struct {
	srv  *serve.Server
	http *http.Server
	done chan error
	base string
}

func boot(opts serve.Options, client *http.Client) (*liveServer, error) {
	s := serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &liveServer{srv: s, http: &http.Server{Handler: s.Handler()}, done: make(chan error, 1),
		base: "http://" + ln.Addr().String()}
	go func() { l.done <- l.http.Serve(ln) }()
	if _, status, _, err := get(client, l.base+"/healthz"); err != nil || status != http.StatusOK {
		l.stop()
		return nil, fmt.Errorf("boot: healthz status %d: %v", status, err)
	}
	return l, nil
}

// stop drains the server and waits for its serve loop to end.
func (l *liveServer) stop() error {
	l.srv.Drain()
	err := l.http.Shutdown(context.Background())
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func get(client *http.Client, url string) ([]byte, int, string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, resp.Header.Get("X-Reprod-Cache"), err
}

func (l *liveServer) runURL(k serveKey) string {
	return fmt.Sprintf("%s/v1/run?exp=%s&seed=%d&scale=1", l.base, k.exp, k.seed)
}

// promMetrics reads /metrics, summing each metric over its labels;
// "reprod_requests_total{code=...}" is also kept per code.
func (l *liveServer) promMetrics(client *http.Client) (map[string]float64, error) {
	body, status, _, err := get(client, l.base+"/metrics")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d: %v", status, err)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		if strings.HasPrefix(name, "reprod_requests_total{") {
			m[name] += v
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		m[name] += v
	}
	return m, sc.Err()
}

// servePass is one measured pass of the mix.
type servePass struct {
	wall, cpu, rss float64
	lat            [3][]float64      // client seconds of each request, by class
	fresh          map[string]string // digest of each cold body
}

// classSource is the X-Reprod-Cache source each class must be served
// from: hot keys from memory, disk keys from the disk tier, fresh seeds
// by a run of their own.
var classSource = [...]string{classHot: "hit", classDisk: "disk", classFresh: "miss"}

// runServePass sends the pass's requests from serveClients closed-loop
// clients (each waits for its reply before taking the next request),
// times each at the client, and checks every reply: its status, its
// cache source, and for hot and disk keys its bytes against the
// reference digest. Each request is one operation of the gate. With a
// tracer, every request is also a span.
func runServePass(l *liveServer, client *http.Client, reqs []serveKey, g *gate, t *tracer) servePass {
	out := servePass{fresh: map[string]string{}}
	type reply struct {
		body       []byte
		status     int
		source     string
		err        error
		start, end time.Time
	}
	replies := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	win := newReqWindow(len(reqs))
	m := startMeter()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				// A cold run's key enters the LRU when the run ends, at
				// no fixed place in the order, so it need not hold
				// back the requests after it.
				fresh := reqs[i].class == classFresh
				if fresh {
					win.done(i)
				}
				win.wait(i)
				rp := &replies[i]
				rp.start = time.Now()
				rp.body, rp.status, rp.source, rp.err = get(client, l.runURL(reqs[i]))
				rp.end = time.Now()
				if !fresh {
					win.done(i)
				}
			}
		}()
	}
	wg.Wait()
	out.wall, out.cpu, out.rss = m.stop()

	for i, rp := range replies {
		k := reqs[i]
		if rp.err == nil && rp.status != http.StatusOK {
			rp.err = fmt.Errorf("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
		}
		if rp.err == nil && rp.source != classSource[k.class] {
			rp.err = fmt.Errorf("request %d of the pass: served from cache source %q, want %q", i, rp.source, classSource[k.class])
		}
		out.lat[k.class] = append(out.lat[k.class], rp.end.Sub(rp.start).Seconds())
		if t != nil {
			t.add(span{Name: "request", ID: rp.source + ":" + k.id(), Parent: -1,
				Start: int64(rp.start.Sub(t.t0)), End: int64(rp.end.Sub(t.t0)), Work: int64(len(rp.body))})
		}
		if k.class != classFresh {
			g.check(k.id(), digestOf(rp.body), rp.err)
		} else if rp.err != nil {
			g.check(k.id(), "", rp.err)
		} else {
			out.fresh[k.id()] = digestOf(rp.body)
		}
	}
	return out
}

// reqWindow bounds how far the clients' requests can overtake each
// other: request i is sent only once every request up to
// i-serveWindow has been answered. It holds a client back only when the
// other has stalled for serveWindow requests.
type reqWindow struct {
	mu       sync.Mutex
	cond     sync.Cond
	answered []bool
	prefix   int // requests 0..prefix-1 are all answered
}

func newReqWindow(n int) *reqWindow {
	w := &reqWindow{answered: make([]bool, n)}
	w.cond.L = &w.mu
	return w
}

func (w *reqWindow) wait(i int) {
	w.mu.Lock()
	for w.prefix <= i-serveWindow {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

func (w *reqWindow) done(i int) {
	w.mu.Lock()
	w.answered[i] = true
	for w.prefix < len(w.answered) && w.answered[w.prefix] {
		w.prefix++
	}
	w.mu.Unlock()
	w.cond.Broadcast()
}

// measureServe runs the serve workload: set-up populates a cache dir
// and boots the server on it, then closed-loop passes of the mix run
// against it for the measured time.
func measureServe(ctx context.Context, o options, g *gate, t *tracer) (result, map[string]any, error) {
	seed := o.seed
	hot, filler, disk := serveKeys(seed)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}}
	defer client.CloseIdleConnections()
	opts := serve.Options{
		CacheDir:     filepath.Join(o.work, "cache"),
		CacheEntries: serveHot + serveFiller,
	}

	// Set-up: spill every key through a server's cold path, oldest
	// first, with a pause between groups so the boot scan (which warms
	// the newest spills) can tell them apart by modification time.
	pop, err := boot(opts, client)
	if err != nil {
		return result{}, nil, err
	}
	for gi, group := range [][]serveKey{disk, filler, hot} {
		if gi > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		for _, k := range group {
			body, status, _, err := get(client, pop.runURL(k))
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("populate %s: status %d", k.id(), status)
			}
			g.check(k.id(), digestOf(body), err)
		}
	}
	if err := pop.stop(); err != nil {
		return result{}, nil, err
	}
	// The spilled bytes must equal a direct run of each key.
	for _, k := range serveSetUpKeys(seed) {
		body, err := directRun(ctx, k, nil, -1)
		g.check(k.id(), digestOf(body), err)
	}

	var boots []float64
	var l *liveServer
	for i := 0; i < serveBoots; i++ {
		if l != nil {
			if err := l.stop(); err != nil {
				return result{}, nil, err
			}
		}
		client.CloseIdleConnections()
		runtime.GC() // no boot pays for the garbage of the one before
		t0 := time.Now()
		if l, err = boot(opts, client); err != nil {
			return result{}, nil, err
		}
		boots = append(boots, time.Since(t0).Seconds())
	}
	defer l.stop()
	if _, active, derr := l.srv.DiskCache(); !active {
		return result{}, nil, fmt.Errorf("disk tier inactive: %v", derr)
	}
	before, err := l.promMetrics(client)
	if err != nil {
		return result{}, nil, err
	}

	var walls, cpus, rss, tracedWalls []float64
	var lat [3][]float64
	fresh := map[int]map[string]string{}
	tracedPass := map[int]bool{}
	enough := func() bool {
		if len(walls) < minPasses {
			return false
		}
		if !o.trace {
			return true
		}
		for _, xs := range lat {
			if _, ok := percentile(xs, 0.99); !ok {
				return false
			}
		}
		return true
	}
	start := time.Now()
	for p := 0; ; p++ {
		elapsed := time.Since(start).Seconds()
		if enough() && elapsed >= o.seconds {
			break
		}
		if elapsed > max(2*o.seconds, 60) {
			return result{}, nil, fmt.Errorf("under %d samples in a latency class after %.0fs", serveTail, elapsed)
		}
		traced := o.trace && p%2 == 1
		var pt *tracer
		if traced {
			pt = t
			t.setPass(p)
		}
		sp := runServePass(l, client, passRequests(seed, p, hot, disk), g, pt)
		fresh[p] = sp.fresh
		for c := range lat {
			lat[c] = append(lat[c], sp.lat[c]...)
		}
		if !traced {
			walls = append(walls, sp.wall)
			cpus = append(cpus, sp.cpu)
			rss = append(rss, sp.rss)
			continue
		}
		tracedPass[p] = true
		tracedWalls = append(tracedWalls, sp.wall)
	}
	passes := len(walls) + len(tracedWalls)
	after, err := l.promMetrics(client)
	if err != nil {
		return result{}, nil, err
	}
	d := func(name string) float64 { return after[name] - before[name] }
	checkCounters(g, d, after, passes)

	// Every cold body must equal a direct run of its key. In a traced
	// run, the direct runs of the first serveReplayPasses traced passes
	// are traced, which splits a cold request's run into its layers;
	// the others run untraced on serveClients goroutines.
	type coldBody struct {
		key    serveKey
		digest string
	}
	var plain []coldBody
	var layers []layerMetrics
	for p := 0; p < passes; p++ {
		replay := tracedPass[p] && len(layers) < serveReplayPasses
		ps := -1
		if replay {
			t.setPass(p)
			ps = t.open("pass", "replay", -1)
		}
		for _, k := range passRequests(seed, p, hot, disk) {
			cold, ok := fresh[p][k.id()]
			if k.class != classFresh || !ok {
				continue // not cold, or the request failed and was counted
			}
			if !replay {
				plain = append(plain, coldBody{k, cold})
				continue
			}
			body, err := directRun(ctx, k, t, ps)
			g.match(k.id(), cold, digestOf(body), err)
		}
		if replay {
			t.close(ps, 0)
			layers = append(layers, passLayers(t.spans, selfTimes(t.spans), p))
		}
	}
	direct := make([][]byte, len(plain))
	errs := make([]error, len(plain))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(plain); i = int(next.Add(1)) - 1 {
				direct[i], errs[i] = directRun(ctx, plain[i].key, nil, -1)
			}
		}()
	}
	wg.Wait()
	for i, c := range plain {
		g.match(c.key.id(), c.digest, digestOf(direct[i]), errs[i])
	}

	share := classShares(lat)
	rec := map[string]any{"passes": len(walls), "traced_passes": len(tracedWalls),
		"boots": len(boots), "wall_s_all": walls, "setup_s_all": boots,
		"class_share": map[string]float64{"hit": share[classHot], "disk": share[classDisk], "cold": share[classFresh]}}
	if !o.trace {
		return result{Metrics: map[string]metric{
			"wall_s":      {median(walls), "s"},
			"cpu_s":       {median(cpus), "s"},
			"peak_rss_mb": {median(rss), "MB"},
			"setup_s":     {median(boots), "s"},
		}}, rec, nil
	}

	lm := medianLayers(layers)
	perPass := func(name string) float64 { return d(name) / float64(passes) }
	reqs := float64(passes * (passHot + passDisk + passFresh))
	lm["serve.requests"] = reqs / float64(passes)
	lm["serve.req_per_s"] = reqs / (sum(walls) + sum(tracedWalls))
	lm["serve.hit_ratio"] = d("reprod_cache_hits_total") / reqs
	lm["serve.disk_hits"] = perPass("reprod_disk_hits_total")
	lm["serve.runs"] = perPass("reprod_runs_total")
	lm["serve.runs_per_cold_key"] = d("reprod_runs_total") / float64(passes*passFresh)
	if n := d("reprod_run_seconds_count"); n > 0 {
		lm["serve.run_s"] = d("reprod_run_seconds_sum") / n
	}
	lm["serve.shared_runs"] = perPass("reprod_shared_runs_total")
	lm["serve.spill_writes"] = perPass("reprod_spill_writes_total")
	lm["serve.spill_corrupt"] = after["reprod_spill_corrupt_total"]
	lm["serve.rejected"] = d("reprod_requests_total") - d(`reprod_requests_total{code="200"}`)
	lm["serve.warm_entries"] = after["reprod_disk_warm_entries"]
	for _, c := range []struct {
		class reqClass
		name  string
		scale float64
	}{{classHot, "hit", 1e6}, {classDisk, "disk", 1e6}, {classFresh, "cold", 1e3}} {
		unit := "us"
		if c.class == classFresh {
			unit = "ms"
		}
		p50, _ := percentile(lat[c.class], 0.5)
		p99, _ := percentile(lat[c.class], 0.99)
		lm[fmt.Sprintf("serve.%s_p50_%s", c.name, unit)] = p50 * c.scale
		lm[fmt.Sprintf("serve.%s_p99_%s", c.name, unit)] = p99 * c.scale
		lm["serve.share_"+c.name] = share[c.class]
	}
	lm["trace.overhead_frac"] = median(tracedWalls)/median(walls) - 1
	rec["latency_samples"] = map[string]int{"hit": len(lat[classHot]), "disk": len(lat[classDisk]), "cold": len(lat[classFresh])}
	return result{Metrics: layerResult(lm)}, rec, nil
}

// checkCounters checks the server's own counters over the measured
// window against the mix, each as one operation of the gate: every hot
// request was a memory hit, every disk request a disk hit, every fresh
// seed ran exactly once (serve.runs_per_cold_key is 1) and spilled once,
// no request joined another's run or was rejected, and no spill was
// found corrupt, at boot or since.
func checkCounters(g *gate, d func(string) float64, after map[string]float64, passes int) {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"memory hits", d("reprod_cache_hits_total"), float64(passes * passHot)},
		{"disk hits", d("reprod_disk_hits_total"), float64(passes * passDisk)},
		{"runs", d("reprod_runs_total"), float64(passes * passFresh)},
		{"spill writes", d("reprod_spill_writes_total"), float64(passes * passFresh)},
		{"shared runs", d("reprod_shared_runs_total"), 0},
		{"rejected requests", d("reprod_requests_total") - d(`reprod_requests_total{code="200"}`), 0},
		{"corrupt spills", after["reprod_spill_corrupt_total"], 0},
		{"warm entries", after["reprod_disk_warm_entries"], serveHot + serveFiller},
	} {
		g.attempted++
		if c.got != c.want {
			g.fail("server counter %s: %g, want %g", c.name, c.got, c.want)
		}
	}
}

// classShares returns each class's share of the clients' summed request
// time.
func classShares(lat [3][]float64) [3]float64 {
	var share [3]float64
	total := 0.0
	for c := range lat {
		share[c] = sum(lat[c])
		total += share[c]
	}
	for c := range share {
		if total > 0 {
			share[c] /= total
		}
	}
	return share
}

// directRun runs key k through sim.Experiment.Run and encodes it, as a
// server's cold path does; with a tracer, its layers are recorded.
func directRun(ctx context.Context, k serveKey, t *tracer, parent int) ([]byte, error) {
	e, ok := sim.Lookup(k.exp)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", k.exp)
	}
	es := t.open("exp", k.exp, parent)
	if t != nil {
		e = t.instrument(e, k.exp, es)
	}
	res, err := e.Run(ctx, sim.ExpConfig{Seed: k.seed, Scale: 1}, sim.RunOptions{})
	var buf bytes.Buffer
	if err == nil {
		en := t.open("encode", k.exp, es)
		err = res.WriteJSON(&buf)
		t.close(en, int64(buf.Len()))
	}
	t.close(es, 0)
	return buf.Bytes(), err
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
