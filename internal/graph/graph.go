package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Errors returned by graph constructors.
var (
	ErrVertexRange  = errors.New("graph: vertex out of range")
	ErrNoVertices   = errors.New("graph: graph must have at least one vertex")
	ErrTooLarge     = errors.New("graph: size exceeds the 32-bit half-edge layout (n ≤ MaxSize, m ≤ MaxEdges)")
	ErrMalformedCSR = errors.New("graph: malformed CSR")
)

// MaxSize bounds the vertex count and MaxEdges the edge count: Half
// packs the edge ID and far endpoint into uint32 fields and the CSR
// offset table is int32, so n may not exceed 2^31−1 and the 2m
// half-edges must fit the same range (m ≤ (2^31−1)/2). NewFromEdges
// and NewFrozen enforce the bounds before they allocate.
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

// Graph is an undirected multigraph with loops, immutable once built.
// The zero value is an empty graph with no vertices; use NewFromEdges
// or NewFrozen to construct a usable instance.
//
// Adjacency is stored in compressed-sparse-row (CSR) form from birth:
// one flat []Half array holding every adjacency list back to back plus
// a []int32 offset table, so hot loops index neighbourhoods without
// pointer chasing. Vertex v's halves occupy halves[off[v]:off[v+1]], in
// increasing edge-ID order; a loop at v contributes its two halves side
// by side.
//
// Nothing writes a Graph after its constructor returns, so one instance
// may be read from any number of goroutines without preparation.
type Graph struct {
	n      int
	edges  []Edge
	halves []Half
	off    []int32
}

// NewFromEdges builds a graph with n vertices and the given edges;
// edge i gets ID i. Parallel edges and loops are retained. It checks
// the size bounds before it allocates and does not keep edges. An edge
// with an endpoint outside [0, n) is reported, the first one in edge
// order, wrapped in ErrVertexRange.
func NewFromEdges(n int, edges []Edge) (*Graph, error) {
	if err := checkSize(n, len(edges)); err != nil {
		return nil, err
	}
	return fromEdges(n, slices.Clone(edges))
}

// fromEdges is NewFromEdges adopting edges: a counting sort by
// endpoint that fills each vertex's CSR block in edge-ID order.
func fromEdges(n int, edges []Edge) (*Graph, error) {
	if err := checkSize(n, len(edges)); err != nil {
		return nil, err
	}
	off := make([]int32, n+1)
	for _, e := range edges {
		if err := checkEdge(n, e.U, e.V); err != nil {
			return nil, err
		}
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	halves := make([]Half, off[n])
	// off[v] serves as the slot of vertex v's next half, so after the
	// fill it holds v's end, which is v+1's start: shift it back a slot.
	for id, e := range edges {
		halves[off[e.U]] = Half{ID: uint32(id), To: uint32(e.V)}
		off[e.U]++
		halves[off[e.V]] = Half{ID: uint32(id), To: uint32(e.U)}
		off[e.V]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return &Graph{n: n, edges: edges, halves: halves, off: off}, nil
}

// checkEdge rejects an edge {u, v} with an endpoint outside [0, n).
func checkEdge(n, u, v int) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("%w: edge {%d,%d} in graph of %d vertices", ErrVertexRange, u, v, n)
	}
	return nil
}

// checkSize rejects a graph of n vertices and m edges that is empty or
// breaks the 32-bit Half contract.
func checkSize(n, m int) error {
	if n <= 0 {
		return ErrNoVertices
	}
	if n > MaxSize || m > MaxEdges {
		return fmt.Errorf("%w: n=%d, m=%d", ErrTooLarge, n, m)
	}
	return nil
}

// NewFrozen returns the graph whose edge array is edges and whose CSR
// adjacency is halves delimited by off: vertex v's halves are
// halves[off[v]:off[v+1]]. It adopts the three slices, so the caller
// must not touch them afterwards.
//
// The layout must be exactly the one NewFromEdges(n, edges) builds: off
// has n+1 monotone entries from 0 to len(halves), and each vertex lists
// its halves in increasing edge-ID order, edge {u, v} contributing
// {ID, v} at u and {ID, u} at v (a loop: two halves {ID, u} at u).
// NewFrozen checks this in O(n+m), walking the edges in ID order with
// one cursor per vertex, and reports the first defect wrapped in
// ErrMalformedCSR.
func NewFrozen(n int, edges []Edge, off []int32, halves []Half) (*Graph, error) {
	if err := checkSize(n, len(edges)); err != nil {
		return nil, err
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
	return &Graph{n: n, edges: edges, halves: halves, off: off}, nil
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

// Halves returns the flat CSR half-edge array. The halves of vertex v
// occupy Halves()[Offsets()[v]:Offsets()[v+1]]. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Halves() []Half { return g.halves }

// Offsets returns the CSR offset table (length N()+1). The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) Offsets() []int32 { return g.off }

// Edge returns the endpoints of edge id.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns a copy of the edge array.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Degree returns the degree of v, with each loop counting 2.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// Adj returns the half-edge adjacency list of v: a view into the flat
// CSR array, owned by the graph, which must not be modified.
func (g *Graph) Adj(v int) []Half { return g.halves[g.off[v]:g.off[v+1]] }

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

// Validate checks internal consistency: the CSR offsets are well
// formed, adjacency matches the edge array, and the handshake identity
// sum(deg) = 2m holds.
func (g *Graph) Validate() error {
	if g.n == 0 {
		return ErrNoVertices
	}
	if len(g.off) != g.n+1 || g.off[0] != 0 || int(g.off[g.n]) != len(g.halves) {
		return fmt.Errorf("graph: CSR offsets malformed: %d entries for %d vertices, %d halves", len(g.off), g.n, len(g.halves))
	}
	for v := 0; v < g.n; v++ {
		if g.off[v] > g.off[v+1] {
			return fmt.Errorf("graph: CSR offsets not monotone at vertex %d", v)
		}
	}
	if got, want := g.DegreeSum(), 2*g.M(); got != want {
		return fmt.Errorf("graph: handshake violated: degree sum %d != 2m = %d", got, want)
	}
	for v := 0; v < g.n; v++ {
		for _, h := range g.Adj(v) {
			if int(h.ID) >= len(g.edges) {
				return fmt.Errorf("graph: vertex %d references edge %d out of range", v, h.ID)
			}
			e := g.edges[h.ID]
			if (e.U != v && e.V != v) || e.Other(v) != int(h.To) {
				return fmt.Errorf("graph: half-edge %+v at vertex %d inconsistent with edge %+v", h, v, e)
			}
		}
	}
	return nil
}
