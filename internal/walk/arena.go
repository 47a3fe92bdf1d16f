package walk

import (
	"repro/internal/bits"
	"repro/internal/graph"
)

// reuse returns a zeroed length-n slice, recycling s's storage when
// its capacity suffices — the walk package's standard pattern for
// keeping Reset and the cover drivers allocation-free once warmed up.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// edgeArena is the flat pending-halves store shared by the
// unvisited-edge walks (EProcess, Biased). It mirrors the graph's CSR
// layout: one contiguous []Half block holding every vertex's pending
// (not-yet-visited) half-edges, delimited per vertex by the graph's
// offset table on the left and a mutable end cursor on the right.
//
// Invariants:
//   - pending halves of v occupy halves[off[v]:end[v]], with
//     off[v] <= end[v] <= off[v+1];
//   - under EProcess the blocks are exact at every Step boundary: cross
//     deletes both halves of the crossed edge, so a block holds exactly
//     the unvisited halves at its vertex and BlueDegree is its length;
//   - under Biased, whose SRW branch crosses unvisited edges without
//     removing them, a visited half may linger until its vertex is next
//     pruned (lazy deletion, each half removed at most once, so total
//     maintenance is O(m) per run);
//   - reset restores every block to the graph's full adjacency by one
//     flat copy — no per-vertex allocation, and after the first reset
//     no allocation at all.
type edgeArena struct {
	halves []graph.Half // mutable working copy of the graph's CSR halves
	off    []int32      // graph-owned CSR offsets; read-only here
	end    []int32      // end[v]: exclusive end of v's live pending block
}

// reset (re)initialises the arena from g's CSR block, reusing existing
// storage when the sizes match (always, after the first call on a given
// graph).
func (a *edgeArena) reset(g *graph.Graph) {
	src := g.Halves()
	a.off = g.Offsets()
	if len(a.halves) != len(src) {
		a.halves = make([]graph.Half, len(src))
	}
	copy(a.halves, src)
	if len(a.end) != g.N() {
		a.end = make([]int32, g.N())
	}
	copy(a.end, a.off[1:])
}

// pending returns the live pending block of v. The slice aliases the
// arena; it is invalidated by prune, cross, and reset.
func (a *edgeArena) pending(v int) []graph.Half {
	return a.halves[a.off[v]:a.end[v]]
}

// prune deletes (by swap with the block's last element) every pending
// half of v whose edge is already visited: Biased's lazy deletion. On
// an empty block the loop body never runs, so callers need no
// emptiness pre-check.
func (a *edgeArena) prune(v int, visited *bits.Set) {
	lo, hi := a.off[v], a.end[v]
	for i := lo; i < hi; {
		if visited.Test(int(a.halves[i].ID)) {
			hi--
			a.halves[i] = a.halves[hi]
		} else {
			i++
		}
	}
	a.end[v] = hi
}

// cross deletes the edge at index i of v's pending block (an index
// into the slice returned by pending) from both endpoints and returns
// its half at v. Each half goes by swap with its block's last element:
// the chosen one at v, then the twin at the far endpoint, found by its
// edge ID (for a loop the twin sits in v's own block). This is exactly
// the arrangement a lazy prune on the next arrival would leave, because
// that prune would find the twin as the block's only visited half.
func (a *edgeArena) cross(v, i int) graph.Half {
	j := a.off[v] + int32(i)
	h := a.halves[j]
	hi := a.end[v] - 1
	a.halves[j] = a.halves[hi]
	a.end[v] = hi
	w := h.To
	p, hi := a.off[w], a.end[w]-1
	for a.halves[p].ID != h.ID {
		p++
	}
	a.halves[p] = a.halves[hi]
	a.end[w] = hi
	return h
}
