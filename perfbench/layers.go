package main

import (
	"runtime"

	"repro/internal/sim"
)

// layerMetrics are the per-layer numbers of one traced pass, keyed by
// metric name.
type layerMetrics map[string]float64

// layerNames lists every per-layer metric with its unit. Every traced
// run reports all of them; a layer a workload does not exercise reads 0.
func layerNames() [][2]string {
	names := [][2]string{
		{"gen.calls", "count"}, {"gen.busy_s", "s"}, {"gen.edges", "count"}, {"gen.edges_per_s", "1/s"},
		{"walk.calls", "count"}, {"walk.batch_calls", "count"}, {"walk.batch_lanes_mean", "count"},
		{"walk.busy_s", "s"}, {"walk.steps", "count"}, {"walk.steps_per_s", "1/s"}, {"walk.censored", "count"},
	}
	for _, e := range walksExps {
		names = append(names, [2]string{"walk.busy_s." + e, "s"})
	}
	names = append(names, [][2]string{
		{"sim.plan_s", "s"}, {"sim.units", "count"}, {"sim.run_s", "s"}, {"sim.run_self_s", "s"},
		{"sim.pool_idle_frac", "ratio"}, {"sim.finish_s", "s"}, {"sim.encode_s", "s"}, {"sim.encode_bytes", "bytes"},
		{"sim.journal_files", "count"}, {"sim.journal_bytes", "bytes"}, {"bench.pass_self_s", "s"},
	}...)
	for _, e := range sim.Names() {
		names = append(names, [2]string{"exp." + e + ".s", "s"})
	}
	names = append(names, [][2]string{
		{"serve.requests", "count"}, {"serve.req_per_s", "1/s"}, {"serve.hit_ratio", "ratio"}, {"serve.disk_hits", "count"},
		{"serve.hit_p50_us", "us"}, {"serve.hit_p99_us", "us"}, {"serve.disk_p50_us", "us"}, {"serve.disk_p99_us", "us"},
		{"serve.cold_p50_ms", "ms"}, {"serve.cold_p99_ms", "ms"},
		{"serve.share_hit", "ratio"}, {"serve.share_disk", "ratio"}, {"serve.share_cold", "ratio"},
		{"serve.runs", "count"}, {"serve.runs_per_cold_key", "ratio"}, {"serve.run_s", "s"},
		{"serve.shared_runs", "count"}, {"serve.spill_writes", "count"}, {"serve.spill_corrupt", "count"},
		{"serve.rejected", "count"}, {"serve.warm_entries", "count"},
		{"trace.overhead_frac", "ratio"},
	}...)
	return names
}

// passLayers computes the per-layer metrics of traced pass p from the
// spans the instrumented layers recorded.
func passLayers(spans []span, self []float64, p int) layerMetrics {
	m := layerMetrics{}
	var batchLanes float64
	for i, s := range spans {
		if s.Pass != p || s.End < 0 {
			continue
		}
		d := s.dur()
		switch s.Name {
		case "gen":
			m["gen.calls"]++
			m["gen.busy_s"] += d
			m["gen.edges"] += float64(s.Work)
		case "walk":
			if s.Lanes > 0 {
				m["walk.batch_calls"]++
				batchLanes += float64(s.Lanes)
			} else {
				m["walk.calls"]++
			}
			m["walk.busy_s"] += d
			m["walk.busy_s."+s.ID] += d
			m["walk.steps"] += float64(s.Work)
			m["walk.censored"] += float64(s.Censored)
		case "plan":
			m["sim.plan_s"] += d
		case "run":
			m["sim.run_s"] += d
			m["sim.run_self_s"] += self[i]
			m["sim.units"] += float64(s.Work)
		case "finish":
			m["sim.finish_s"] += d
		case "encode":
			m["sim.encode_s"] += d
			m["sim.encode_bytes"] += float64(s.Work)
		case "exp":
			m["exp."+s.ID+".s"] += d
		case "pass":
			m["bench.pass_self_s"] += self[i]
		}
	}
	if m["gen.busy_s"] > 0 {
		m["gen.edges_per_s"] = m["gen.edges"] / m["gen.busy_s"]
	}
	if m["walk.busy_s"] > 0 {
		m["walk.steps_per_s"] = m["walk.steps"] / m["walk.busy_s"]
	}
	if m["walk.batch_calls"] > 0 {
		m["walk.batch_lanes_mean"] = batchLanes / m["walk.batch_calls"]
	}
	if m["sim.run_s"] > 0 {
		busy := m["gen.busy_s"] + m["walk.busy_s"]
		m["sim.pool_idle_frac"] = 1 - busy/(float64(runtime.GOMAXPROCS(0))*m["sim.run_s"])
	}
	return m
}

// medianLayers takes, for every metric, the median over the passes.
func medianLayers(passes []layerMetrics) layerMetrics {
	out := layerMetrics{}
	for _, n := range layerNames() {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p[n[0]])
		}
		out[n[0]] = median(xs)
	}
	return out
}

// layerResult turns per-layer numbers into result metrics.
func layerResult(lm layerMetrics) map[string]metric {
	out := map[string]metric{}
	for _, n := range layerNames() {
		out[n[0]] = metric{lm[n[0]], n[1]}
	}
	return out
}
