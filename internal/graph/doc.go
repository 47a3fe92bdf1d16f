// Package graph provides the graph substrate used by every walk process
// and experiment in the repository.
//
// The central type is Graph, an undirected multigraph with loops.
// Multigraph support is not optional for this paper: the proofs of
// Lemma 13 and Lemma 16 contract vertex sets to a single vertex
// "retaining multiple edges and loops", and the analysis machinery here
// mirrors the contraction exactly (see Contract).
//
// Vertices are dense integers 0..N()-1. Edges are dense integers
// 0..M()-1; each edge knows its two endpoints, and a loop is an edge
// whose endpoints coincide (contributing 2 to the degree of its vertex,
// as in standard multigraph degree counting, so that the handshake
// identity sum(deg) = 2m always holds).
//
// # Storage: one immutable CSR
//
// A Graph is built once and never changes. Its constructor lays the
// adjacency out in compressed-sparse-row (CSR) form: one flat []Half
// array holding every adjacency list back to back, delimited by an
// Offsets table of int32 (vertex v's halves are
// Halves()[Offsets()[v]:Offsets()[v+1]], in increasing edge-ID order).
// The flat layout keeps neighbour blocks contiguous in cache and lets
// hot loops index them without pointer chasing, which is where
// simulation time goes. NewFromEdges builds the CSR from an edge list
// with one counting sort; a generator that already holds its
// adjacency in that layout hands it to NewFrozen, which validates it
// in O(n+m) and adopts it. Because nothing writes a Graph after
// construction, any number of goroutines may read one instance; a walk
// on a changing topology masks a fixed base through Overlay instead.
//
// # The 32-bit Half contract
//
// Half packs its edge ID and far endpoint into uint32 fields — 8 bytes
// per half instead of 16 — halving the bytes every adjacency scan and
// pending-arena copy streams through cache. The price is a size bound:
// n ≤ MaxSize (2^31−1) and m ≤ MaxEdges (so the 2m half-edges fit the
// int32 CSR offset range), which NewFromEdges and NewFrozen validate
// before they allocate — so a Half field converts to int losslessly
// everywhere. Callers must not assume the fields are machine-word
// sized: code holding a Half field in an int context converts
// explicitly (int(h.To), int(h.ID)). A MaxEdges-sized graph is ~17 GiB
// of CSR halves — ~34 GiB once the walk engine's pending arena holds
// its second copy — beyond any single-machine experiment here; a wider
// layout would be a deliberate redesign, not a field type change.
//
// The package also provides the structural queries the paper's analysis
// needs: connectivity, bipartiteness (which decides whether the walk
// must be made lazy), girth, induced and edge-induced subgraphs,
// breadth-first distance, and encoding to edge-list and DOT formats.
package graph
