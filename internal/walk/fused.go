package walk

import (
	"fmt"
	mbits "math/bits"

	"repro/internal/graph"
	"repro/internal/rng"
)

// fusable reports whether the cover drivers may run e through
// coverFused: a fresh (no step taken since construction or Reset),
// static-graph, Uniform-rule process that is not recording phases.
// Every other process is driven one Step at a time.
func (e *EProcess) fusable() bool {
	return e.fastUniform && e.topo == nil && !e.recordPhases && e.stats.Total() == 0
}

// coverFused runs a fusable E-process toward cover in one loop, taking
// exactly the steps per-Step driving would take: the same draws over
// the same pending blocks, the same swap-with-last deletions. The loop
// owns the process state while it runs. The xoshiro256** words (when
// the source is one, bare or inside an *rng.Rand) are hoisted into
// locals and each draw is the generator's update plus Lemire's
// reduction written out inline at each of the two draw sites: the loop
// is register-bound, and this form measured faster than a shared draw
// site or an inlined helper (rng's TestStateInlineUpdateMatches pins
// the state layout this relies on).
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
	var st *[4]uint64
	switch s := r.(type) {
	case *rng.Xoshiro256:
		st = s.State()
	case *rng.Rand:
		if x, ok := s.Source().(*rng.Xoshiro256); ok {
			st = x.State()
		}
	}
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
				un := uint64(cnt)
				res := mbits.RotateLeft64(s1*5, 7) * 9
				t := s1 << 17
				s2 ^= s0
				s3 ^= s1
				s1 ^= s2
				s0 ^= s3
				s2 ^= t
				s3 = mbits.RotateLeft64(s3, 45)
				hi64, lo64 := mbits.Mul64(res, un)
				if lo64 < un {
					thresh := -un % un
					for lo64 < thresh {
						res = mbits.RotateLeft64(s1*5, 7) * 9
						t = s1 << 17
						s2 ^= s0
						s3 ^= s1
						s1 ^= s2
						s0 ^= s3
						s2 ^= t
						s3 = mbits.RotateLeft64(s3, 45)
						hi64, lo64 = mbits.Mul64(res, un)
					}
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
			if deg <= 0 {
				// Isolated vertex: per-Step driving's Intn(0) panics.
				panic("rng: Intn with non-positive bound")
			}
			if st != nil {
				un := uint64(deg)
				res := mbits.RotateLeft64(s1*5, 7) * 9
				t := s1 << 17
				s2 ^= s0
				s3 ^= s1
				s1 ^= s2
				s0 ^= s3
				s2 ^= t
				s3 = mbits.RotateLeft64(s3, 45)
				hi64, lo64 := mbits.Mul64(res, un)
				if lo64 < un {
					thresh := -un % un
					for lo64 < thresh {
						res = mbits.RotateLeft64(s1*5, 7) * 9
						t = s1 << 17
						s2 ^= s0
						s3 ^= s1
						s1 ^= s2
						s0 ^= s3
						s2 ^= t
						s3 = mbits.RotateLeft64(s3, 45)
						hi64, lo64 = mbits.Mul64(res, un)
					}
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

// budgetError is the cover drivers' censoring error for a run stopped
// at steps with leftV vertices (and, when edges is set, leftE edges)
// still uncovered.
func budgetError(edges bool, leftV, leftE int, steps int64) error {
	if edges {
		return fmt.Errorf("%w: %d vertices, %d edges uncovered after %d steps", ErrStepBudget, leftV, leftE, steps)
	}
	return fmt.Errorf("%w: %d vertices unvisited after %d steps", ErrStepBudget, leftV, steps)
}

// Batch names the retired lockstep multi-walk cover engine. The name
// stays only because perfbench/passes.go still compiles against it
// (through sim.BatchArmFunc); nothing in this module uses it.
//
// Deprecated: fresh Uniform-rule E-processes take the fused cover loop
// through CoverScratch.Cover and CoverScratch.VertexCoverSteps.
type Batch = struct{}
