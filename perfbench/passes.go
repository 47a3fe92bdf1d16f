package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/walk"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	scale int
	exps  []string
	// journal runs every experiment with a fresh checkpoint journal, as
	// `paperrun -checkpoint` does; without it, runs are plain, as in
	// `sweep`.
	journal bool
}

// walksExps cover every walk step path: the fused sequential E-process
// with SRW, rotor and choice walks (compare), the batch lane (hcube,
// eq4), the generic Rule (rulea), Biased (bias) and the dynamic overlay
// (pcfcover, churncover). Their graphs are small, so walking dominates.
var walksExps = []string{"compare", "hcube", "rulea", "bias", "eq4", "pcfcover", "churncover"}

// serveExps are the cheap experiments the serve workload requests.
var serveExps = []string{"eq3", "radzik", "cor4", "rulea", "eq4", "churncover"}

func workloads() map[string]*workload {
	return map[string]*workload{
		"registry": {name: "registry", scale: 2, exps: sim.Names(), journal: true},
		"walks":    {name: "walks", scale: 8, exps: walksExps},
		"serve":    {name: "serve", scale: 1, exps: serveExps},
	}
}

// masterSeed turns the benchmark's seed into the experiments' master
// seed (a SplitMix64 step), so the program sees only generated inputs.
func masterSeed(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// expOut is one experiment run of a pass.
type expOut struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	Err    string `json:"err,omitempty"`
}

// passOut is one pass over a workload's experiments.
type passOut struct {
	Wall float64  `json:"wall_s"`
	CPU  float64  `json:"cpu_s"`
	RSS  float64  `json:"rss_mb"`
	Exps []expOut `json:"exps"`
	// Journal counts the checkpoint files and bytes the pass wrote.
	JournalFiles int64 `json:"-"`
	JournalBytes int64 `json:"-"`
}

// runPass runs every experiment of w once, in order, through
// sim.Experiment.Run and encodes each Result; a journaled workload gets
// a fresh checkpoint journal under dir, exactly as `paperrun -checkpoint
// dir` does. With a
// tracer, the calls into each layer are recorded as spans.
func runPass(ctx context.Context, w *workload, seed uint64, dir string, t *tracer) (passOut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return passOut{}, err
	}
	defer os.RemoveAll(dir)
	cfg := sim.ExpConfig{Seed: masterSeed(seed), Scale: w.scale}
	var out passOut
	ps := t.open("pass", w.name, -1)
	m := startMeter()
	for _, name := range w.exps {
		e, ok := sim.Lookup(name)
		if !ok {
			return out, fmt.Errorf("unknown experiment %q", name)
		}
		es := t.open("exp", name, ps)
		if t != nil {
			e = t.instrument(e, name, es)
		}
		var ro sim.RunOptions
		if w.journal {
			ro.Checkpoint = &sim.Checkpoint{Dir: filepath.Join(dir, name)}
		}
		res, err := e.Run(ctx, cfg, ro)
		var buf bytes.Buffer
		if err == nil {
			en := t.open("encode", name, es)
			err = res.WriteJSON(&buf)
			t.close(en, int64(buf.Len()))
		}
		t.close(es, 0)
		o := expOut{Name: name, Digest: digestOf(buf.Bytes())}
		if err != nil {
			o.Err = err.Error()
		}
		out.Exps = append(out.Exps, o)
	}
	out.Wall, out.CPU, out.RSS = m.stop()
	t.close(ps, 0)
	if t != nil {
		var err error
		if out.JournalFiles, out.JournalBytes, err = dirUsage(dir); err != nil {
			return out, err
		}
	}
	return out, nil
}

// dirUsage counts the regular files under dir and their bytes.
func dirUsage(dir string) (files, size int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		size += info.Size()
		return nil
	})
	return files, size, err
}

// instrument returns e with its Plan wrapped, so that e.Run records the
// plan, every graph build (PointSpec.Graph), every arm call (Arm.Run and
// Arm.RunBatch), the sweep (SweepPlan.RunContext, from the end of Plan
// to the start of Finish) and the Finish as spans under parent. The
// wrappers pass every argument and result through unchanged.
func (t *tracer) instrument(e sim.Experiment, id string, parent int) sim.Experiment {
	plan := e.Plan
	e.Plan = func(cfg sim.ExpConfig) (*sim.SweepPlan, sim.Finish, error) {
		ps := t.open("plan", id, parent)
		pl, finish, err := plan(cfg)
		t.close(ps, 0)
		if err != nil {
			return nil, nil, err
		}
		run := t.open("run", id, parent)
		for i := range pl.Points {
			pt := &pl.Points[i]
			if pt.Graph != nil {
				pt.Graph = t.genFunc(pt.Graph, id, run)
			}
			for j := range pt.Arms {
				a := &pt.Arms[j]
				if a.Run != nil {
					a.Run = t.armFunc(a.Run, id, run)
				}
				if a.RunBatch != nil {
					a.RunBatch = t.batchFunc(a.RunBatch, id, run)
				}
			}
		}
		units := int64(pl.UnitCount())
		return pl, func(points []sim.PointResult) (*sim.Result, error) {
			t.close(run, units)
			fs := t.open("finish", id, parent)
			defer t.close(fs, 0)
			return finish(points)
		}, nil
	}
	return e
}

func (t *tracer) genFunc(f sim.GraphFactory, id string, parent int) sim.GraphFactory {
	return func(r *rand.Rand) (*graph.Graph, error) {
		s := span{Name: "gen", ID: id, Parent: parent, Start: t.now()}
		g, err := f(r)
		s.End = t.now()
		if g != nil {
			s.Work = int64(g.M())
		}
		t.add(s)
		return g, err
	}
}

func (t *tracer) armFunc(f sim.ArmFunc, id string, parent int) sim.ArmFunc {
	return func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (sim.Measurement, error) {
		s := span{Name: "walk", ID: id, Parent: parent, Start: t.now()}
		m, err := f(trial, g, r, sc, maxSteps)
		s.End = t.now()
		s.Work, s.Censored = walkSteps(m, err, maxSteps)
		t.add(s)
		return m, err
	}
}

func (t *tracer) batchFunc(f sim.BatchArmFunc, id string, parent int) sim.BatchArmFunc {
	return func(gs []*graph.Graph, rs []*rng.Rand, bt *walk.Batch, maxSteps int64) ([]sim.Measurement, []error) {
		s := span{Name: "walk", ID: id, Parent: parent, Start: t.now(), Lanes: len(gs)}
		ms, errs := f(gs, rs, bt, maxSteps)
		s.End = t.now()
		for i := range ms {
			var err error
			if i < len(errs) {
				err = errs[i]
			}
			steps, cens := walkSteps(ms[i], err, maxSteps)
			s.Work += steps
			s.Censored += cens
		}
		t.add(s)
		return ms, errs
	}
}

// walkSteps is the length of the walk a measurement reports (its later
// cover time) and whether the walk was censored: it failed or spent its
// whole step budget.
func walkSteps(m sim.Measurement, err error, maxSteps int64) (int64, int) {
	steps := int64(max(m.Vertex, m.Edge))
	if err != nil || (maxSteps > 0 && steps >= maxSteps) {
		return steps, 1
	}
	return steps, 0
}
