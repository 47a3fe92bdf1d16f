// Package gen constructs the graph families used across the paper's
// experiments and the comparison literature it cites.
//
// The centrepiece is the random r-regular generator. The paper's own
// experiments (Section 5) used NetworkX's implementation of the
// Steger–Wormald algorithm; we provide both a classic configuration
// (pairing) model with simplicity rejection — which generates exactly
// uniformly over simple r-regular graphs conditioned on acceptance — and
// a Steger–Wormald-style incremental pairing that avoids rejection of
// whole configurations and scales to the paper's n = 5·10^5 range.
//
// The package also builds: fixed degree-sequence random graphs
// (Corollary 2's second family), hypercubes (the H_r edge-cover case
// study), toroidal grids and random geometric graphs (the Avin &
// Krishnamachari RWC(d) comparison), circulant graphs (a deterministic
// even-degree high-girth-free family), Margulis-style expanders on
// Z_k × Z_k (deterministic 8-regular even-degree expanders, standing in
// for the Lubotzky–Phillips–Sarnak construction cited for high-girth
// expanders), and assorted small deterministic families (cycles,
// complete graphs, lollipops, double cycles) used by tests and
// lower-bound demonstrations.
//
// Every stochastic generator takes an explicit *rand.Rand so that every
// graph in every experiment is reproducible from a seed.
//
// The Steger–Wormald generators (RandomRegularSW,
// RandomDegreeSequenceSW) write the CSR adjacency directly, in
// edge-creation order per vertex, and hand it to graph.NewFrozen: the
// layout graph.NewFromEdges would build from the same edge list. The
// other generators append their edges to a slice and call
// graph.NewFromEdges once. A family whose size follows from its
// arguments rejects an oversize request with a wrapped
// graph.ErrTooLarge before it allocates.
package gen
