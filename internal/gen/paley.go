package gen

import (
	"fmt"

	"repro/internal/graph"
)

// Paley returns the Paley graph on q vertices for a prime q ≡ 1
// (mod 4): vertices are Z_q, with x ~ y iff x−y is a nonzero quadratic
// residue. Paley graphs are (q−1)/2-regular, self-complementary,
// quasi-random expanders with λ2(adj) = (−1+√q)/2 — a deterministic
// even-degree expander family when (q−1)/2 is even (q ≡ 1 mod 8), used
// as a stand-in for algebraic expander constructions.
func Paley(q int) (*graph.Graph, error) {
	if q < 5 {
		return nil, fmt.Errorf("gen: Paley needs prime q >= 5, got %d", q)
	}
	if err := checkSize("Paley", float64(q), float64(q)*float64(q-1)/4); err != nil {
		return nil, err
	}
	if !isPrime(q) {
		return nil, fmt.Errorf("gen: Paley needs prime q, got composite %d", q)
	}
	if q%4 != 1 {
		return nil, fmt.Errorf("gen: Paley needs q ≡ 1 (mod 4), got %d", q)
	}
	residue := make([]bool, q)
	for x := 1; x < q; x++ {
		residue[x*x%q] = true
	}
	edges := make([]graph.Edge, 0, q*(q-1)/4)
	for x := 0; x < q; x++ {
		for y := x + 1; y < q; y++ {
			if residue[(y-x)%q] {
				edges = append(edges, graph.Edge{U: x, V: y})
			}
		}
	}
	return graph.NewFromEdges(q, edges)
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// BipartiteDouble returns the bipartite double cover of g: vertices
// (v, 0) and (v, 1) with (u,0)~(v,1) for every edge {u,v} of g. A loop
// at v (adjacency weight 2) becomes two parallel edges between v's
// copies, preserving all degrees. The double cover's walk spectrum is
// the union of g's spectrum and its negation, so it always has
// λn = −1 — the canonical source of λmax ≠ λ2 graphs for testing the
// paper's lazification device.
func BipartiteDouble(g *graph.Graph) (*graph.Graph, error) {
	n := g.N()
	edges := make([]graph.Edge, 0, 2*g.M())
	for id := 0; id < g.M(); id++ {
		// A loop {v, v} gives the same pair of edges as any other edge.
		e := g.Edge(id)
		edges = append(edges, graph.Edge{U: e.U, V: e.V + n}, graph.Edge{U: e.V, V: e.U + n})
	}
	return graph.NewFromEdges(2*n, edges)
}
