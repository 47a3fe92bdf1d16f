package graph

// Girth returns the length of a shortest cycle, or -1 if the graph is
// acyclic. Loops give girth 1 and parallel edges girth 2, consistent
// with multigraph convention.
//
// For simple graphs the computation is the standard BFS-per-vertex
// method: from each root, a non-tree edge at BFS depths (d(u), d(v))
// witnesses a cycle through the root's BFS tree of length
// d(u)+d(v)+1. Running it over all roots yields the exact girth in
// O(n·m). Girth is used by Theorem 3's edge-cover bound and by the
// high-girth experiment graphs.
func (g *Graph) Girth() int {
	best := -1
	// Multigraph short-circuit: loops and parallel edges.
	seen := make(map[Edge]bool, g.M())
	for _, e := range g.edges {
		if e.IsLoop() {
			return 1
		}
		key := e
		if key.U > key.V {
			key.U, key.V = key.V, key.U
		}
		if seen[key] {
			best = 2
		}
		seen[key] = true
	}
	if best == 2 {
		return 2
	}

	dist := make([]int, g.N())
	parentEdge := make([]int, g.N())
	queue := make([]int, 0, g.N())
	for root := 0; root < g.N(); root++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[root] = 0
		parentEdge[root] = -1
		queue = queue[:0]
		queue = append(queue, root)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if best != -1 && 2*dist[v] >= best {
				// No shorter cycle through root can still be found.
				break
			}
			for _, h := range g.Adj(v) {
				if int(h.ID) == parentEdge[v] {
					continue
				}
				if dist[h.To] == -1 {
					dist[h.To] = dist[v] + 1
					parentEdge[h.To] = int(h.ID)
					queue = append(queue, int(h.To))
				} else {
					// Non-tree edge: cycle of length dist[v]+dist[to]+1.
					cyc := dist[v] + dist[h.To] + 1
					if best == -1 || cyc < best {
						best = cyc
					}
				}
			}
		}
		if best == 3 {
			return 3 // cannot do better in a simple graph
		}
	}
	return best
}
