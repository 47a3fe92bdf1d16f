package graph

// Bridges returns the IDs of all bridge edges (edges whose removal
// disconnects their component), via Tarjan's low-link DFS adapted to
// multigraphs: parallel edges and loops are never bridges, and the
// parent edge is distinguished by edge ID rather than by endpoint so
// that a parallel copy correctly de-bridges an edge.
//
// Bridges tie into the walk theory through the commute identity
// K(u,v) = 2m·R_eff(u,v): an edge {u,v} has K(u,v) = 2m exactly when
// it is a bridge (R_eff = 1), otherwise K(u,v) < 2m.
func (g *Graph) Bridges() []int {
	n := g.N()
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	var bridges []int
	timer := 0

	// Iterative DFS to survive deep graphs (e.g. long cycles).
	type frame struct {
		v          int
		parentEdge int
		adjIndex   int
	}
	for root := 0; root < n; root++ {
		if disc[root] != -1 {
			continue
		}
		stack := []frame{{v: root, parentEdge: -1}}
		disc[root] = timer
		low[root] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			adj := g.Adj(f.v)
			if f.adjIndex < len(adj) {
				h := adj[f.adjIndex]
				f.adjIndex++
				if int(h.ID) == f.parentEdge {
					continue // the tree edge we came in on (by ID, so parallels count)
				}
				if disc[h.To] == -1 {
					disc[h.To] = timer
					low[h.To] = timer
					timer++
					stack = append(stack, frame{v: int(h.To), parentEdge: int(h.ID)})
				} else if disc[h.To] < low[f.v] {
					low[f.v] = disc[h.To]
				}
				continue
			}
			// Post-order: propagate low-link to parent, detect bridge.
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				continue
			}
			p := &stack[len(stack)-1]
			if low[f.v] < low[p.v] {
				low[p.v] = low[f.v]
			}
			if low[f.v] > disc[p.v] {
				bridges = append(bridges, f.parentEdge)
			}
		}
	}
	return bridges
}
