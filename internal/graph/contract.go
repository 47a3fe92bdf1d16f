package graph

// Contract collapses the vertex set S to a single new vertex γ and
// returns the resulting multigraph Γ together with the index of γ and
// the mapping old vertex → new vertex.
//
// This is exactly the construction of Section 2.2 ("Visits to Vertex
// Sets") and Lemma 13: multiple edges and loops are retained, so that
// d(γ) = d(S) and |E(Γ)| = |E(G)|. Edges with both endpoints in S
// become loops at γ; edges between S and V\S become parallel edges at γ.
//
// Vertices outside S keep their relative order and are renumbered
// 0..n-|S|-1; γ is the last vertex, index n-|S|.
func (g *Graph) Contract(s []int) (gamma *Graph, gammaID int, oldToNew []int) {
	inS := make([]bool, g.N())
	sSize := 0
	for _, v := range s {
		if !inS[v] {
			inS[v] = true
			sSize++
		}
	}
	newN := g.N() - sSize + 1
	gammaID = newN - 1
	oldToNew = make([]int, g.N())
	next := 0
	for v := 0; v < g.N(); v++ {
		if inS[v] {
			oldToNew[v] = gammaID
		} else {
			oldToNew[v] = next
			next++
		}
	}
	// Loops and parallel edges are retained by construction.
	edges := make([]Edge, len(g.edges))
	for i, e := range g.edges {
		edges[i] = Edge{U: oldToNew[e.U], V: oldToNew[e.V]}
	}
	gamma, err := fromEdges(newN, edges)
	must(err) // the mapping is total into [0, newN)
	return gamma, gammaID, oldToNew
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
