// Package core implements the paper-specific analysis machinery around
// the E-process: the quantities its theorems are stated in and the
// structural facts its proofs rest on.
//
//   - Blue-subgraph analysis (blue.go): extraction of the unvisited
//     ("blue") edge-induced components of a running E-process, the
//     maximal blue subgraph S*_v rooted at an unvisited vertex
//     (Observation 11), and the isolated-blue-star census behind the
//     Section 5 odd-degree intuition.
//   - ℓ-goodness (lgood.go): a vertex v is ℓ-good when every even-degree
//     subgraph containing all edges incident with v has at least ℓ
//     vertices. Computed exactly up to a search horizon via the cycle
//     census, together with the paper's (P2) edge-density route used for
//     random regular graphs (Section 4.1).
//   - Cycle census (cycles.go): enumeration of all short simple cycles,
//     with the Poisson comparison counts for random regular graphs used
//     by Corollary 4's argument.
//   - Theory bounds (bounds.go): closed-form evaluation of Theorem 1,
//     Theorem 3, equations (2)–(4), Radzik's Theorem 5 lower bound and
//     Feige's SRW lower bound, so experiments can print measured values
//     next to the bound the paper predicts.
//   - Online analyses (invariants.go): instrumented E-process runs that
//     verify Observations 10, 11 and 12 (VerifiedRun), count isolated
//     blue stars at red-phase entries (StarCensusRun) and measure the
//     blue-phase lengths the proof of Lemma 15 predicts
//     (BluePhaseLengths). Each is one observer on walk's cover loop,
//     CoverScratch.Drive, not a step loop of its own.
package core
