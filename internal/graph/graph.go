package graph

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by graph constructors and mutators.
var (
	ErrVertexRange  = errors.New("graph: vertex out of range")
	ErrNoVertices   = errors.New("graph: graph must have at least one vertex")
	ErrTooLarge     = errors.New("graph: size exceeds the 32-bit half-edge layout (n ≤ MaxSize, m ≤ MaxEdges)")
	ErrMalformedCSR = errors.New("graph: malformed CSR")
)

// MaxSize bounds the vertex count and MaxEdges the edge count: Half
// packs the edge ID and far endpoint into uint32 fields and the CSR
// offset table is int32, so n may not exceed 2^31−1 and the 2m
// half-edges must fit the same range (m ≤ (2^31−1)/2). New,
// NewFromEdges, NewFrozen and AddEdge enforce the bounds at
// construction time, so a successfully built graph can always Freeze.
const (
	MaxSize  = math.MaxInt32
	MaxEdges = MaxSize / 2
)

// Edge is an undirected edge between vertices U and V. A loop has U == V.
type Edge struct {
	U, V int
}

// Other returns the endpoint of e that is not x. For a loop it returns x.
// It panics if x is not an endpoint of e.
func (e Edge) Other(x int) int {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", x, e))
	}
}

// IsLoop reports whether e is a self-loop.
func (e Edge) IsLoop() bool { return e.U == e.V }

// Half is a half-edge (dart): the occurrence of edge ID at a vertex,
// pointing at the opposite endpoint To. A loop at v contributes two
// halves at v, both with To == v.
//
// The fields are packed uint32s — 8 bytes per half instead of 16 —
// because the CSR adjacency and the walk engine's pending arenas are
// the dominant hot-state memory traffic at experiment scale. The
// constructors guarantee n ≤ MaxSize and m ≤ MaxEdges, so converting a
// field to int is always lossless; callers must not assume the fields
// are machine-word sized.
type Half struct {
	ID uint32 // edge index into the graph's edge array
	To uint32 // opposite endpoint
}

// Graph is an undirected multigraph with loops. The zero value is an
// empty graph with no vertices; use New, NewFromEdges or NewFrozen to
// construct a usable instance.
//
// A Graph has two storage states. While mutable, adjacency lives in a
// per-vertex builder ([][]Half) so AddEdge is O(1) amortised. Freeze
// converts it to a compressed-sparse-row (CSR) layout — one flat
// []Half array plus a []int32 offset table — which packs every
// adjacency list contiguously for cache locality and lets hot loops
// index neighbourhoods without pointer chasing. Adj works identically
// in both states (on a frozen graph it returns a view into the flat
// array); mutating a frozen graph transparently thaws it back to the
// builder representation.
//
// Concurrency: a frozen Graph is safe for concurrent reads, but the
// freeze/thaw transitions are unsynchronized writes — and note that
// walk constructors and the Halves/Offsets accessors freeze lazily.
// Call Freeze once before sharing a graph across goroutines (the sim
// harness freezes each graph before any arm sees it, including the one
// instance of a deterministic family that every trial of a run reads).
type Graph struct {
	edges []Edge
	n     int

	// Builder adjacency; valid while !frozen, nil once frozen.
	adj [][]Half

	// CSR adjacency; valid while frozen. The halves of vertex v occupy
	// halves[off[v]:off[v+1]], in the same order the builder held them
	// (edge-insertion order per vertex).
	halves []Half
	off    []int32

	// spill holds halves added after Freeze, keyed by vertex, so a
	// post-freeze AddEdge is O(1) amortised instead of an O(n+m)
	// thaw/refreeze. Adj and Degree consult it transparently; the next
	// Freeze (or Halves/Offsets access) merges it back into the CSR in
	// one pass. nil when the frozen CSR is exact.
	spill       map[int][]Half
	spillHalves int

	frozen bool
}

// New returns a graph with n isolated vertices and no edges. It panics
// when n exceeds MaxSize: vertex indices must fit the 32-bit Half
// layout.
func New(n int) *Graph {
	if n <= 0 {
		panic(ErrNoVertices)
	}
	if n > MaxSize {
		panic(fmt.Errorf("%w: n=%d", ErrTooLarge, n))
	}
	return &Graph{n: n, adj: make([][]Half, n)}
}

// NewFromEdges builds a graph with n vertices and the given edges.
// Parallel edges and loops are retained. The result is the graph that
// New(n) plus one AddEdge per edge would build.
func NewFromEdges(n int, edges []Edge) (*Graph, error) {
	if n <= 0 {
		return nil, ErrNoVertices
	}
	if n > MaxSize {
		return nil, fmt.Errorf("%w: n=%d", ErrTooLarge, n)
	}
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// NewFrozen returns the frozen graph whose edge array is edges and
// whose CSR adjacency is halves delimited by off: vertex v's halves are
// halves[off[v]:off[v+1]]. It adopts the three slices, so the caller
// must not touch them afterwards.
//
// The layout must be exactly the one NewFromEdges(n, edges) plus
// Freeze builds: off has n+1 monotone entries from 0 to len(halves),
// and each vertex lists its halves in increasing edge-ID order (the
// edge-insertion order every Graph keeps), edge {u, v} contributing
// {ID, v} at u and {ID, u} at v (a loop: two halves {ID, u} at u).
// NewFrozen checks this in O(n+m), walking the edges in ID order with
// one cursor per vertex, and reports the first defect wrapped in
// ErrMalformedCSR.
func NewFrozen(n int, edges []Edge, off []int32, halves []Half) (*Graph, error) {
	if n <= 0 {
		return nil, ErrNoVertices
	}
	if n > MaxSize || len(edges) > MaxEdges {
		return nil, fmt.Errorf("%w: n=%d, m=%d", ErrTooLarge, n, len(edges))
	}
	if len(off) != n+1 {
		return nil, fmt.Errorf("%w: %d offsets for %d vertices", ErrMalformedCSR, len(off), n)
	}
	if off[0] != 0 || int(off[n]) != len(halves) {
		return nil, fmt.Errorf("%w: offsets span [%d, %d] for %d halves", ErrMalformedCSR, off[0], off[n], len(halves))
	}
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			return nil, fmt.Errorf("%w: offsets not monotone at vertex %d", ErrMalformedCSR, v)
		}
	}
	// cur[v] is the position of the next half vertex v must hold.
	cur := make([]int32, n)
	copy(cur, off)
	for id, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("%w: edge %d %+v has an endpoint outside [0, %d)", ErrMalformedCSR, id, e, n)
		}
		for _, end := range [2]Edge{e, {U: e.V, V: e.U}} {
			at := cur[end.U]
			if want := (Half{ID: uint32(id), To: uint32(end.V)}); at == off[end.U+1] || halves[at] != want {
				return nil, fmt.Errorf("%w: edge %d %+v: vertex %d lacks its half %+v in edge-ID order", ErrMalformedCSR, id, e, end.U, want)
			}
			cur[end.U]++
		}
	}
	for v := 0; v < n; v++ {
		if cur[v] != off[v+1] {
			h := halves[cur[v]]
			return nil, fmt.Errorf("%w: half %+v at vertex %d belongs to no edge in edge-ID order", ErrMalformedCSR, h, v)
		}
	}
	return &Graph{n: n, edges: edges, halves: halves, off: off, frozen: true}, nil
}

// MustFromEdges is NewFromEdges for statically known-valid inputs; it
// panics on error. Intended for tests and examples.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := NewFromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges (loops count once).
func (g *Graph) M() int { return len(g.edges) }

// Freeze finalises the graph into its flat CSR layout. It is idempotent
// and cheap to call on an already-frozen graph; walk constructors call
// it so that every simulation hot path runs on the flat layout. A
// frozen graph remains fully usable — AddEdge thaws it automatically.
// Freeze itself is not synchronized: freeze before sharing the graph
// across goroutines, not concurrently with other access.
func (g *Graph) Freeze() {
	if g.frozen {
		if g.spill != nil {
			g.mergeSpill()
		}
		return
	}
	total := 0
	for _, hs := range g.adj {
		total += len(hs)
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d half-edges exceed the int32 CSR offset range", total))
	}
	g.off = make([]int32, g.n+1)
	g.halves = make([]Half, 0, total)
	for v, hs := range g.adj {
		g.off[v] = int32(len(g.halves))
		g.halves = append(g.halves, hs...)
	}
	g.off[g.n] = int32(len(g.halves))
	g.adj = nil
	g.frozen = true
}

// Frozen reports whether the graph is in its flat CSR state.
func (g *Graph) Frozen() bool { return g.frozen }

// mergeSpill folds the post-freeze spill back into a fresh CSR in one
// O(n+m) pass, preserving per-vertex insertion order (CSR block first,
// spilled halves after, in AddEdge order) — exactly what the old
// thaw+refreeze produced. It runs once per Freeze/Halves/Offsets after
// a batch of mutations, not once per mutation.
func (g *Graph) mergeSpill() {
	total := len(g.halves) + g.spillHalves
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d half-edges exceed the int32 CSR offset range", total))
	}
	halves := make([]Half, 0, total)
	off := make([]int32, g.n+1)
	for v := 0; v < g.n; v++ {
		off[v] = int32(len(halves))
		halves = append(halves, g.halves[g.off[v]:g.off[v+1]]...)
		halves = append(halves, g.spill[v]...)
	}
	off[g.n] = int32(len(halves))
	g.halves, g.off = halves, off
	g.spill, g.spillHalves = nil, 0
}

// thaw reconstitutes the builder adjacency from the CSR arrays (spill
// included) so the graph can be mutated again.
func (g *Graph) thaw() {
	if !g.frozen {
		return
	}
	g.adj = make([][]Half, g.n)
	for v := 0; v < g.n; v++ {
		lo, hi := g.off[v], g.off[v+1]
		if int(hi-lo)+len(g.spill[v]) == 0 {
			continue
		}
		g.adj[v] = append(append([]Half(nil), g.halves[lo:hi]...), g.spill[v]...)
	}
	g.halves, g.off = nil, nil
	g.spill, g.spillHalves = nil, 0
	g.frozen = false
}

// Halves returns the flat CSR half-edge array, freezing the graph if
// needed. The halves of vertex v occupy Halves()[Offsets()[v]:Offsets()[v+1]].
// The returned slice is owned by the graph and must not be modified;
// it is invalidated by the next AddEdge.
func (g *Graph) Halves() []Half {
	g.Freeze()
	return g.halves
}

// Offsets returns the CSR offset table (length N()+1), freezing the
// graph if needed. The returned slice is owned by the graph and must
// not be modified; it is invalidated by the next AddEdge.
func (g *Graph) Offsets() []int32 {
	g.Freeze()
	return g.off
}

// AddEdge appends an undirected edge {u, v} and returns its edge ID.
// On a frozen graph the new halves land in a per-vertex spill that Adj
// and Degree consult transparently — O(1) amortised, no CSR rebuild —
// and the next Freeze (or Halves/Offsets access) merges the whole
// batch back into the flat layout in one O(n+m) pass.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: edge {%d,%d} in graph of %d vertices", ErrVertexRange, u, v, g.n)
	}
	if len(g.edges) >= MaxEdges {
		return fmt.Errorf("%w: m=%d", ErrTooLarge, len(g.edges))
	}
	id := uint32(len(g.edges))
	g.edges = append(g.edges, Edge{U: u, V: v})
	if g.frozen {
		if g.spill == nil {
			g.spill = make(map[int][]Half)
		}
		g.spill[u] = append(g.spill[u], Half{ID: id, To: uint32(v)})
		g.spill[v] = append(g.spill[v], Half{ID: id, To: uint32(u)})
		g.spillHalves += 2
		return nil
	}
	g.adj[u] = append(g.adj[u], Half{ID: id, To: uint32(v)})
	g.adj[v] = append(g.adj[v], Half{ID: id, To: uint32(u)})
	return nil
}

// Edge returns the endpoints of edge id.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns a copy of the edge array.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Degree returns the degree of v, with each loop counting 2.
func (g *Graph) Degree(v int) int {
	if g.frozen {
		d := int(g.off[v+1] - g.off[v])
		if g.spill != nil {
			d += len(g.spill[v])
		}
		return d
	}
	return len(g.adj[v])
}

// Adj returns the half-edge adjacency list of v. The returned slice is
// owned by the graph and must not be modified. On a frozen graph it is
// a view into the flat CSR array (for a vertex touched by a post-freeze
// AddEdge, a fresh combined slice) and is invalidated by the next
// AddEdge.
func (g *Graph) Adj(v int) []Half {
	if g.frozen {
		csr := g.halves[g.off[v]:g.off[v+1]]
		if g.spill == nil {
			return csr
		}
		sp := g.spill[v]
		if len(sp) == 0 {
			return csr
		}
		return append(append(make([]Half, 0, len(csr)+len(sp)), csr...), sp...)
	}
	return g.adj[v]
}

// IsSimple reports whether the graph has no loops and no parallel edges.
func (g *Graph) IsSimple() bool {
	seen := make(map[Edge]bool, len(g.edges))
	for _, e := range g.edges {
		if e.IsLoop() {
			return false
		}
		key := e
		if key.U > key.V {
			key.U, key.V = key.V, key.U
		}
		if seen[key] {
			return false
		}
		seen[key] = true
	}
	return true
}

// MinDegree returns the minimum vertex degree.
func (g *Graph) MinDegree() int {
	min := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// MaxDegree returns the maximum vertex degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// IsRegular reports whether every vertex has the same degree, returning
// that degree when true.
func (g *Graph) IsRegular() (int, bool) {
	d := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if g.Degree(v) != d {
			return 0, false
		}
	}
	return d, true
}

// IsEvenDegree reports whether every vertex has even degree — the
// structural hypothesis of the paper's Theorem 1 and Observation 10.
func (g *Graph) IsEvenDegree() bool {
	for v := 0; v < g.n; v++ {
		if g.Degree(v)%2 != 0 {
			return false
		}
	}
	return true
}

// DegreeSum returns the sum of all vertex degrees (= 2*M()).
func (g *Graph) DegreeSum() int {
	total := 0
	for v := 0; v < g.n; v++ {
		total += g.Degree(v)
	}
	return total
}

// Clone returns a deep copy of g, in the same (frozen or builder)
// storage state.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		edges:  make([]Edge, len(g.edges)),
		n:      g.n,
		frozen: g.frozen,
	}
	copy(c.edges, g.edges)
	if g.frozen {
		c.halves = append([]Half(nil), g.halves...)
		c.off = append([]int32(nil), g.off...)
		if g.spill != nil {
			c.spill = make(map[int][]Half, len(g.spill))
			for v, hs := range g.spill {
				c.spill[v] = append([]Half(nil), hs...)
			}
			c.spillHalves = g.spillHalves
		}
		return c
	}
	c.adj = make([][]Half, g.n)
	for v, hs := range g.adj {
		if len(hs) == 0 {
			continue
		}
		c.adj[v] = append([]Half(nil), hs...)
	}
	return c
}

// Validate checks internal consistency: adjacency matches the edge
// array, and the handshake identity sum(deg) = 2m holds.
func (g *Graph) Validate() error {
	if g.n == 0 {
		return ErrNoVertices
	}
	if got, want := g.DegreeSum(), 2*g.M(); got != want {
		return fmt.Errorf("graph: handshake violated: degree sum %d != 2m = %d", got, want)
	}
	if g.frozen {
		if len(g.off) != g.n+1 || g.off[0] != 0 || int(g.off[g.n]) != len(g.halves) {
			return fmt.Errorf("graph: CSR offsets malformed: %d entries for %d vertices, %d halves", len(g.off), g.n, len(g.halves))
		}
		for v := 0; v < g.n; v++ {
			if g.off[v] > g.off[v+1] {
				return fmt.Errorf("graph: CSR offsets not monotone at vertex %d", v)
			}
		}
	}
	halves := 0
	for v := 0; v < g.n; v++ {
		for _, h := range g.Adj(v) {
			if int(h.ID) >= len(g.edges) {
				return fmt.Errorf("graph: vertex %d references edge %d out of range", v, h.ID)
			}
			e := g.edges[h.ID]
			if (e.U != v && e.V != v) || e.Other(v) != int(h.To) {
				return fmt.Errorf("graph: half-edge %+v at vertex %d inconsistent with edge %+v", h, v, e)
			}
			halves++
		}
	}
	if halves != 2*g.M() {
		return fmt.Errorf("graph: %d half-edges for %d edges", halves, g.M())
	}
	return nil
}
