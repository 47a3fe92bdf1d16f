package core

import (
	"errors"
	"math"
	"sort"

	"repro/internal/graph"
)

// CountRootedSubgraphs returns β(s, v): the number of connected
// edge-induced subgraphs of g with exactly s vertices rooted at v
// (Lemma 14), enumerated exactly by depth-first search over edge
// subsets grown in a canonical frontier order. Lemma 14 bounds the
// count by 2^{sΔ}; the experiments compare the exact census against
// that bound. cap aborts runaway enumerations (cap <= 0 means 1<<22).
//
// A subgraph here is a set of edges whose induced vertex set has size
// s, is connected, and contains v — matching the S_v fragments of
// Lemma 15's union bound.
func CountRootedSubgraphs(g *graph.Graph, v, s, cap int) (int, error) {
	if s < 1 {
		return 0, errors.New("core: subgraph size must be positive")
	}
	if cap <= 0 {
		cap = 1 << 22
	}
	if s == 1 {
		// The single vertex v with no edges.
		return 1, nil
	}
	// Two-level enumeration. Level 1: every connected vertex set of
	// size s containing v, generated exactly once by binary
	// include/exclude decisions on the deterministic smallest frontier
	// vertex. Level 2: for each vertex set S, count the edge subsets of
	// G[S] that are connected and touch every vertex of S — those are
	// precisely the edge-induced subgraphs with vertex set S.
	count := 0
	var overflow error
	inSet := map[int]bool{v: true}
	excluded := map[int]bool{}

	smallestFrontier := func() (int, bool) {
		best, found := -1, false
		for u := range inSet {
			for _, h := range g.Adj(u) {
				w := int(h.To)
				if inSet[w] || excluded[w] {
					continue
				}
				if !found || w < best {
					best, found = w, true
				}
			}
		}
		return best, found
	}

	var rec func()
	rec = func() {
		if overflow != nil {
			return
		}
		if len(inSet) == s {
			added := spanningConnectedEdgeSets(g, inSet)
			count += added
			if count >= cap {
				overflow = errors.New("core: subgraph enumeration cap reached")
			}
			return
		}
		u, ok := smallestFrontier()
		if !ok {
			return
		}
		// Include u.
		inSet[u] = true
		rec()
		delete(inSet, u)
		// Exclude u for the rest of this branch.
		excluded[u] = true
		rec()
		delete(excluded, u)
	}
	rec()
	if overflow != nil {
		return count, overflow
	}
	return count, nil
}

// spanningConnectedEdgeSets counts subsets of the edges of G[S] that
// are connected and cover every vertex of S. |E(G[S])| is at most
// s·Δ/2, so the 2^|E| enumeration is fine at the small s of Lemma 15.
func spanningConnectedEdgeSets(g *graph.Graph, inSet map[int]bool) int {
	verts := make([]int, 0, len(inSet))
	for u := range inSet {
		verts = append(verts, u)
	}
	sort.Ints(verts)
	pos := make(map[int]int, len(verts))
	for i, u := range verts {
		pos[u] = i
	}
	var edges []graph.Edge
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if inSet[e.U] && inSet[e.V] {
			edges = append(edges, e)
		}
	}
	if len(edges) > 30 {
		// Unreachable at Lemma 15 scales; refuse quietly with 0 rather
		// than loop for 2^30 subsets.
		return 0
	}
	count := 0
	s := len(verts)
	for mask := 1; mask < 1<<uint(len(edges)); mask++ {
		// Union-find over the s vertices.
		parent := make([]int, s)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		covered := make([]bool, s)
		for i, e := range edges {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			pu, pv := pos[e.U], pos[e.V]
			covered[pu] = true
			covered[pv] = true
			parent[find(pu)] = find(pv)
		}
		ok := true
		root := -1
		for i := 0; i < s; i++ {
			if !covered[i] {
				ok = false
				break
			}
			r := find(i)
			if root == -1 {
				root = r
			} else if r != root {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

// Lemma14Bound evaluates 2^{s·Δ}, the Lemma 14 upper bound on β(s, v),
// saturating at +Inf for large exponents.
func Lemma14Bound(s, maxDeg int) float64 {
	exp := float64(s * maxDeg)
	if exp > 1023 {
		return math.Inf(1)
	}
	return math.Pow(2, exp)
}

// LeafPathsThroughRoot constructs the Section 3.3 objects for Theorem
// 3's proof: B_ℓ(v), its leaf set L(v), and the set Q_v of leaf-to-leaf
// paths through v in the BFS tree of depth ℓ. It returns the paths as
// vertex sequences (x … v … y). The proof of Lemma 17 bounds
// |Q_v| ≤ Δ^{2ℓ}.
//
// Paths are composed of the two tree branches from v to distinct
// leaves whose first steps leave v along different edges (so the path
// passes *through* v).
func LeafPathsThroughRoot(g *graph.Graph, v, ell int) ([][]int, error) {
	if ell < 1 {
		return nil, errors.New("core: ℓ must be at least 1")
	}
	// BFS tree of depth ell rooted at v, tracking parents.
	parent := map[int]int{v: -1}
	depth := map[int]int{v: 0}
	var leaves []int
	queue := []int{v}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if depth[x] == ell {
			leaves = append(leaves, x)
			continue
		}
		for _, h := range g.Adj(x) {
			if _, seen := depth[int(h.To)]; !seen {
				depth[int(h.To)] = depth[x] + 1
				parent[int(h.To)] = x
				queue = append(queue, int(h.To))
			}
		}
	}
	// Branch root (the depth-1 ancestor) of each leaf.
	branchOf := func(leaf int) int {
		x := leaf
		for depth[x] > 1 {
			x = parent[x]
		}
		return x
	}
	pathTo := func(leaf int) []int {
		var p []int
		for x := leaf; x != -1; x = parent[x] {
			p = append(p, x)
		}
		return p // leaf … v
	}
	var out [][]int
	for i := 0; i < len(leaves); i++ {
		for j := i + 1; j < len(leaves); j++ {
			if branchOf(leaves[i]) == branchOf(leaves[j]) {
				continue // does not pass through v
			}
			left := pathTo(leaves[i]) // x … v
			right := pathTo(leaves[j])
			// Reverse right (v … y) and append, skipping duplicate v.
			path := append([]int(nil), left...)
			for k := len(right) - 2; k >= 0; k-- {
				path = append(path, right[k])
			}
			out = append(out, path)
		}
	}
	return out, nil
}
