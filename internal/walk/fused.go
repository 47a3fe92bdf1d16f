package walk

import (
	mbits "math/bits"

	"repro/internal/graph"
	"repro/internal/rng"
)

// fusable reports whether the cover drivers may run e through
// coverFused: a fresh (no step taken since construction or Reset),
// static-graph, Uniform-rule process. Every other E-process is driven
// one Step at a time.
func (e *EProcess) fusable() bool {
	return e.fastUniform && e.ov == nil && e.stats.Total() == 0
}

// coverFused runs a fusable E-process toward cover in one loop, taking
// exactly the steps per-Step driving would take: the same draws over
// the same pending blocks, the same swap-with-last deletions. The loop
// owns the process state while it runs. The xoshiro256** words (when
// the source is one, bare or inside an *rng.Rand) are hoisted into
// locals, and each of the two draw sites is xoshiroNext on those
// locals, one multiply, and the out-of-line lemireFringe on the rare
// biased draw: the loop is register-bound, and no draw takes an
// address or makes a call in the common case.
// The crossed edge's twin is deleted on the arrival that follows, found
// by its edge ID among the entries that arrival loads anyway; that is
// the same deletion edgeArena.cross makes, one step later, with nothing
// reading the block in between. Exact blocks pay twice more: a blue
// step always covers a new edge and a red step never does, so edge
// cover is a bare counter with no seen-edge set, and a blue step's one
// 8-byte load yields the destination and the edge ID together.
//
// The run stops when every vertex (and, when edges is set, every edge)
// is covered, or after maxSteps steps. On return the process holds
// exactly what per-Step driving leaves: Current, Stats, Phase, the
// visited set and the pending blocks.
func (sc *CoverScratch) coverFused(e *EProcess, maxSteps int64, edges bool) (ct CoverTimes, steps int64, leftV, leftE int) {
	a := &e.pend
	halves, end, off, csr := a.halves, a.end, a.off, e.halves
	visited := &e.visited
	seenV := sc.vertexSeen(len(end))
	cur := e.cur
	seenV.Set(cur)
	leftV = len(end) - 1
	if edges {
		leftE = e.g.M()
	}

	r := e.ri
	st := xoshiroState(r)
	var s0, s1, s2, s3 uint64
	if st != nil {
		s0, s1, s2, s3 = st[0], st[1], st[2], st[3]
	}

	trace := sc.trace
	var bluePhases int64
	// tp is the edge ID whose twin awaits deletion at cur, or -1: it is
	// set exactly when the previous step was blue.
	tp := int64(-1)
	for leftV|leftE != 0 && steps < maxSteps {
		v := cur
		lo, hi := off[v], end[v]
		if tp >= 0 {
			t := uint32(tp)
			tp = -1
			hi--
			p := lo
			for halves[p].ID != t {
				p++
			}
			halves[p] = halves[hi]
			end[v] = hi
		} else if hi > lo {
			bluePhases++ // a blue step after a red one, or the first step
		}
		var h graph.Half
		if cnt := int(hi - lo); cnt > 0 {
			// Blue: one draw over the pending block, then the chosen
			// half's swap-with-last; its twin goes on the next arrival.
			var j int32
			if st != nil {
				var res uint64
				res, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
				un := uint64(cnt)
				hi64, lo64 := mbits.Mul64(res, un)
				if lo64 < un {
					hi64, s0, s1, s2, s3 = lemireFringe(un, hi64, lo64, s0, s1, s2, s3)
				}
				j = lo + int32(hi64)
			} else {
				j = lo + int32(r.Intn(cnt))
			}
			h = halves[j]
			hi--
			halves[j] = halves[hi]
			end[v] = hi
			tp = int64(h.ID)
			visited.Set(int(h.ID))
			if leftE > 0 {
				if leftE--; leftE == 0 {
					ct.Edge = steps + 1
				}
			}
		} else {
			// Red: a simple-random-walk step over the full adjacency.
			deg := off[v+1] - lo
			if st != nil {
				if deg <= 0 {
					// Isolated vertex: per-Step driving's Intn(0)
					// panics; any other source panics in its own Intn.
					panic("rng: Intn with non-positive bound")
				}
				var res uint64
				res, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
				un := uint64(deg)
				hi64, lo64 := mbits.Mul64(res, un)
				if lo64 < un {
					hi64, s0, s1, s2, s3 = lemireFringe(un, hi64, lo64, s0, s1, s2, s3)
				}
				h = csr[lo+int32(hi64)]
			} else {
				h = csr[lo+int32(r.Intn(int(deg)))]
			}
		}
		cur = int(h.To)
		steps++
		if trace != nil {
			trace(int(h.ID), cur)
		}
		if leftV > 0 && !seenV.Test(cur) {
			seenV.Set(cur)
			if leftV--; leftV == 0 {
				ct.Vertex = steps
			}
		}
	}
	lastBlue := tp >= 0
	if lastBlue {
		// Leave the blocks exact, as Step does.
		t := uint32(tp)
		p, hi := off[cur], end[cur]-1
		for halves[p].ID != t {
			p++
		}
		halves[p] = halves[hi]
		end[cur] = hi
	}
	if st != nil {
		st[0], st[1], st[2], st[3] = s0, s1, s2, s3
	}
	e.cur = cur
	if steps > 0 {
		// The rest of Stats follows from the run's shape, so the loop
		// does not count it: each blue step visited exactly one edge;
		// a fresh process's first step is blue (its start vertex's block
		// is full, and an isolated start panics above); and phases
		// alternate colour, so the last step's colour fixes the number
		// of red phases.
		blueSteps := int64(visited.Count())
		redPhases := bluePhases
		e.phase = PhaseRed
		if lastBlue {
			redPhases--
			e.phase = PhaseBlue
		}
		e.stats = Stats{
			RedSteps:   steps - blueSteps,
			BlueSteps:  blueSteps,
			BluePhases: bluePhases,
			RedPhases:  redPhases,
		}
	}
	return ct, steps, leftV, leftE
}

// coverFusedAny runs p through the fused loop that fits it and reports
// whether one did: a fusable *EProcess takes coverFused, and every
// *Choice and every non-lazy *Simple (RWC(1): the same single draw over
// its CSR block, with no visit counts) whose source is an xoshiro256**
// takes coverChoice. Every other process is left to per-Step driving.
func (sc *CoverScratch) coverFusedAny(p Process, maxSteps int64, edges bool) (ct CoverTimes, steps int64, leftV, leftE int, ok bool) {
	switch w := p.(type) {
	case *EProcess:
		if w.fusable() {
			ct, steps, leftV, leftE = sc.coverFused(w, maxSteps, edges)
			return ct, steps, leftV, leftE, true
		}
	case *Choice:
		if st := xoshiroState(w.ri); st != nil {
			ct, steps, leftV, leftE = sc.coverChoice(w.g, st, w.halves, w.off, w.visits, w.d, &w.cur, maxSteps, edges)
			return ct, steps, leftV, leftE, true
		}
	case *Simple:
		if st := xoshiroState(w.ri); st != nil && !w.lazy {
			ct, steps, leftV, leftE = sc.coverChoice(w.g, st, w.halves, w.off, nil, 1, &w.cur, maxSteps, edges)
			return ct, steps, leftV, leftE, true
		}
	}
	return ct, steps, leftV, leftE, false
}

// coverChoice runs an RWC(d) walk toward cover in one loop, taking
// exactly the steps per-Step driving takes: Choice.Step's d draws of
// Intn(deg) over the current CSR block, a reservoir draw Intn(ties)
// only when a sampled vertex's visit count equals the best so far, and
// the same visit-count updates. visits is nil for the simple walk
// (d = 1), which keeps none. The first sample is drawn ahead of the
// d > 1 branch, so the simple walk's step runs none of the choice code.
// The xoshiro256** words st points at live in locals, and each of the
// three draw sites is xoshiroNext, one multiply and the rare
// lemireFringe, as in coverFused.
//
// The run stops when every vertex (and, when edges is set, every edge)
// is covered, or after maxSteps steps. On return *cur, visits and the
// generator hold what per-Step driving leaves.
func (sc *CoverScratch) coverChoice(g *graph.Graph, st *[4]uint64, halves []graph.Half, off []int32, visits []int64, d int, cur *int, maxSteps int64, edges bool) (ct CoverTimes, steps int64, leftV, leftE int) {
	v := *cur
	seenV := sc.vertexSeen(g.N())
	seenV.Set(v)
	leftV = g.N() - 1
	seenE := &sc.seenE
	if edges {
		leftE = g.M()
		seenE = sc.edgeSeen(leftE)
	}
	s0, s1, s2, s3 := st[0], st[1], st[2], st[3]
	trace := sc.trace
	for leftV|leftE != 0 && steps < maxSteps {
		lo := off[v]
		deg := off[v+1] - lo
		if deg <= 0 {
			// Isolated vertex: per-Step driving's Intn(0) panics.
			panic("rng: Intn with non-positive bound")
		}
		var res uint64
		res, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		un := uint64(deg)
		hi64, lo64 := mbits.Mul64(res, un)
		if lo64 < un {
			hi64, s0, s1, s2, s3 = lemireFringe(un, hi64, lo64, s0, s1, s2, s3)
		}
		best := halves[lo+int32(hi64)]
		if d > 1 {
			bestVisits := visits[best.To]
			ties := 1
			for i := 1; i < d; i++ {
				var res uint64
				res, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
				un := uint64(deg)
				hi64, lo64 := mbits.Mul64(res, un)
				if lo64 < un {
					hi64, s0, s1, s2, s3 = lemireFringe(un, hi64, lo64, s0, s1, s2, s3)
				}
				h := halves[lo+int32(hi64)]
				switch vc := visits[h.To]; {
				case vc < bestVisits:
					best, bestVisits, ties = h, vc, 1
				case vc == bestVisits:
					ties++
					var res uint64
					res, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
					un := uint64(ties)
					hi64, lo64 := mbits.Mul64(res, un)
					if lo64 < un {
						hi64, s0, s1, s2, s3 = lemireFringe(un, hi64, lo64, s0, s1, s2, s3)
					}
					if hi64 == 0 {
						best = h
					}
				}
			}
		}
		v = int(best.To)
		if visits != nil {
			visits[v]++
		}
		steps++
		if trace != nil {
			trace(int(best.ID), v)
		}
		if leftV > 0 && !seenV.Test(v) {
			seenV.Set(v)
			if leftV--; leftV == 0 {
				ct.Vertex = steps
			}
		}
		if leftE > 0 && !seenE.Test(int(best.ID)) {
			seenE.Set(int(best.ID))
			if leftE--; leftE == 0 {
				ct.Edge = steps
			}
		}
	}
	st[0], st[1], st[2], st[3] = s0, s1, s2, s3
	*cur = v
	return ct, steps, leftV, leftE
}

// xoshiroState returns the state words of r's generator when it is an
// xoshiro256** (bare or inside an *rng.Rand), for the fused loops to
// hoist into locals, and nil for any other source.
func xoshiroState(r Intner) *[4]uint64 {
	switch s := r.(type) {
	case *rng.Xoshiro256:
		return s.State()
	case *rng.Rand:
		if x, ok := s.Source().(*rng.Xoshiro256); ok {
			return x.State()
		}
	}
	return nil
}

// xoshiroNext is one xoshiro256** update on the state words s0..s3 held
// in the caller's locals: it returns the output and the advanced words,
// exactly what rng.Xoshiro256.Uint64 returns and leaves in its state
// (TestFusedDrawMatchesUint64n pins it). It takes no address, so the
// words stay in registers, and it inlines into each draw site.
func xoshiroNext(s0, s1, s2, s3 uint64) (res, n0, n1, n2, n3 uint64) {
	res = mbits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = mbits.RotateLeft64(s3, 45)
	return res, s0, s1, s2, s3
}

// lemireFringe finishes Lemire's reduction into [0, un) of a draw whose
// product with un is hi:lo and landed in the low fringe (lo < un),
// drawing again from s0..s3 while lo stays below the rejection
// threshold, as rng.Xoshiro256.Uint64n does. It returns the reduced
// value and the advanced words. A draw reaches it with probability
// un/2⁶⁴, so it stays out of line: the rejection loop is compiled once
// rather than into each of the five draw sites, and the hot loops pay
// a call only on the rare draw that needs it.
//
//go:noinline
func lemireFringe(un, hi, lo, s0, s1, s2, s3 uint64) (uint64, uint64, uint64, uint64, uint64) {
	thresh := -un % un
	for lo < thresh {
		var res uint64
		res, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		hi, lo = mbits.Mul64(res, un)
	}
	return hi, s0, s1, s2, s3
}

// Batch names the retired lockstep multi-walk cover engine. The name
// stays only because perfbench/passes.go still compiles against it
// (through sim.BatchArmFunc); nothing in this module uses it.
//
// Deprecated: fresh Uniform-rule E-processes take the fused cover loop
// through CoverScratch.Cover and CoverScratch.VertexCoverSteps.
type Batch = struct{}
