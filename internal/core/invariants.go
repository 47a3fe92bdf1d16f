package core

import (
	"errors"
	"fmt"

	"repro/internal/bits"
	"repro/internal/walk"
)

// ErrInvariant reports a violation of one of the paper's structural
// observations during a verified E-process run. On even-degree graphs
// this indicates an implementation bug; on odd-degree graphs violations
// of Observation 10 are expected (Section 5).
var ErrInvariant = errors.New("core: E-process invariant violated")

// VerifiedRun drives an E-process until both vertex and edge cover (or
// the step budget), verifying online:
//
//	Observation 10 — every blue phase ends at the vertex it started at;
//	Observation 11 — between blue phases all blue degrees are even
//	                 (checked at phase boundaries on sampled vertices);
//	Observation 12 — blue transitions never exceed m.
//
// It returns the cover times and final phase statistics. The checks
// require an even-degree graph; VerifiedRun refuses others. maxSteps <= 0
// means a budget of (n+m)·100000 steps.
func VerifiedRun(e *walk.EProcess, maxSteps int64) (walk.CoverTimes, walk.Stats, error) {
	g := e.Graph()
	if !g.IsEvenDegree() {
		return walk.CoverTimes{}, walk.Stats{}, errors.New("core: VerifiedRun requires an even-degree graph")
	}
	n, m := g.N(), g.M()
	if maxSteps <= 0 {
		maxSteps = int64(n+m) * 100000
	}
	cur, bluePhaseStart := e.Current(), -1
	check := func(_, v int) error {
		before := cur
		cur = v
		switch e.Phase() {
		case walk.PhaseBlue:
			if bluePhaseStart == -1 {
				bluePhaseStart = before
			}
			if e.BlueDegree(v) == 0 {
				// Blue phase complete: Observation 10.
				if v != bluePhaseStart {
					return fmt.Errorf("%w: blue phase started at %d ended at %d (Observation 10)",
						ErrInvariant, bluePhaseStart, v)
				}
				bluePhaseStart = -1
				// Observation 11 at the phase boundary: blue degrees of
				// the phase's endpoints are even; a full scan would be
				// O(n) per phase, so check the two endpoints plus the
				// neighbours of v.
				if err := checkEvenBlue(e, v); err != nil {
					return err
				}
			}
		case walk.PhaseRed:
			if bluePhaseStart != -1 {
				return fmt.Errorf("%w: red step at %d while blue phase from %d unfinished (Observation 10)",
					ErrInvariant, before, bluePhaseStart)
			}
		}
		if st := e.Stats(); st.BlueSteps > int64(m) {
			return fmt.Errorf("%w: %d blue steps exceed m=%d (Observation 12)",
				ErrInvariant, st.BlueSteps, m)
		}
		return nil
	}
	var sc walk.CoverScratch
	ct, _, err := sc.Drive(e, maxSteps, true, true, check)
	return ct, e.Stats(), err
}

func checkEvenBlue(e *walk.EProcess, v int) error {
	g := e.Graph()
	if e.BlueDegree(v)%2 != 0 {
		return fmt.Errorf("%w: odd blue degree %d at %d (Observation 11)",
			ErrInvariant, e.BlueDegree(v), v)
	}
	for _, h := range g.Adj(v) {
		if e.BlueDegree(int(h.To))%2 != 0 {
			return fmt.Errorf("%w: odd blue degree %d at neighbour %d (Observation 11)",
				ErrInvariant, e.BlueDegree(int(h.To)), h.To)
		}
	}
	return nil
}

// IsolatedStarCenters returns the vertices that are currently centres
// of isolated blue stars: v is unvisited (full blue degree ≥ 2) and
// every neighbour's only blue edges are those to v. This is the
// Section 5 structure {v, w, x, y} on 3-regular graphs.
func IsolatedStarCenters(e *walk.EProcess) []int {
	g := e.Graph()
	var out []int
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		if d < 2 || e.BlueDegree(v) != d {
			continue
		}
		isStar := true
		for _, h := range g.Adj(v) {
			if int(h.To) == v {
				isStar = false // loop: not a star shape
				break
			}
			// Neighbour must have blue degree exactly the multiplicity
			// of its edges to v (all other incident edges visited).
			blueToV := 0
			for _, hh := range g.Adj(int(h.To)) {
				if !e.EdgeVisited(int(hh.ID)) && int(hh.To) == v {
					blueToV++
				}
			}
			if e.BlueDegree(int(h.To)) != blueToV {
				isStar = false
				break
			}
		}
		if isStar {
			out = append(out, v)
		}
	}
	return out
}

// StarStats is the outcome of a star-census run (Section 5 experiment).
type StarStats struct {
	// Peak is the largest simultaneous isolated-star population seen at
	// any red-phase entry.
	Peak int
	// EverCenters is the number of distinct vertices that were an
	// isolated star centre at any sampled moment — the closest
	// observable to the paper's |I| ≈ n/8 prediction for r = 3.
	EverCenters int
	Cover       walk.CoverTimes
}

// StarCensusRun runs an E-process to edge cover, measuring the
// isolated-blue-star population at every entry into a red phase. On
// even-degree graphs blue components are even-degree subgraphs, so
// stars cannot occur and both counters must be 0. maxSteps <= 0 means
// a budget of (n+m)·100000 steps. Cover.Vertex is 0 on a graph with an
// isolated vertex, which no walk visits; EverCenters is counted only
// for a run that reaches edge cover.
func StarCensusRun(e *walk.EProcess, maxSteps int64) (StarStats, error) {
	g := e.Graph()
	if maxSteps <= 0 {
		maxSteps = int64(g.N()+g.M()) * 100000
	}
	var st StarStats
	var ever bits.Set
	ever.Reset(g.N())
	lastPhase := walk.Phase(0)
	census := func(_, _ int) error {
		if p := e.Phase(); p != lastPhase {
			if p == walk.PhaseRed {
				centers := IsolatedStarCenters(e)
				st.Peak = max(st.Peak, len(centers))
				for _, c := range centers {
					ever.Set(c)
				}
			}
			lastPhase = p
		}
		return nil
	}
	// Without an isolated vertex every vertex is covered by the time
	// every edge is, so the run stops at edge cover either way.
	var sc walk.CoverScratch
	var err error
	if st.Cover, _, err = sc.Drive(e, maxSteps, g.MinDegree() > 0, true, census); err != nil {
		return st, err
	}
	st.EverCenters = ever.Count()
	return st, nil
}

// BluePhaseLengths runs an E-process to edge cover and returns the
// lengths of its blue phases (maximal runs of blue steps), in order,
// with those of the run so far when the budget stops it. maxSteps <= 0
// means walk's default budget over n+m, as for walk.EdgeCoverSteps.
// The structural prediction from the proof of Lemma 15 is that the
// first phase is macroscopic (Euler-like on an even-degree graph: a
// constant fraction of m) and later phases shrink as the blue
// territory fragments.
func BluePhaseLengths(e *walk.EProcess, maxSteps int64) ([]int64, error) {
	var lens []int64
	var run int64
	count := func(_, _ int) error {
		if e.Phase() == walk.PhaseBlue {
			run++
		} else if run > 0 {
			lens = append(lens, run)
			run = 0
		}
		return nil
	}
	var sc walk.CoverScratch
	_, _, err := sc.Drive(e, maxSteps, false, true, count)
	if run > 0 {
		lens = append(lens, run)
	}
	return lens, err
}
