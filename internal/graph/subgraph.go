package graph

// InducedSubgraph returns the subgraph induced by the vertex set s
// (G[S] in the paper's notation): all vertices of s and every edge of g
// with both endpoints in s. It also returns the mapping old → new vertex
// (-1 for vertices outside s).
func (g *Graph) InducedSubgraph(s []int) (*Graph, []int) {
	oldToNew := make([]int, g.N())
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	count := 0
	for _, v := range s {
		if oldToNew[v] == -1 {
			oldToNew[v] = count
			count++
		}
	}
	var edges []Edge
	for _, e := range g.edges {
		if oldToNew[e.U] != -1 && oldToNew[e.V] != -1 {
			edges = append(edges, Edge{U: oldToNew[e.U], V: oldToNew[e.V]})
		}
	}
	sub, err := fromEdges(count, edges)
	must(err)
	return sub, oldToNew
}

// DegreeOf returns d(X), the sum of degrees of the vertices in x.
func (g *Graph) DegreeOf(x []int) int {
	total := 0
	seen := make(map[int]bool, len(x))
	for _, v := range x {
		if !seen[v] {
			seen[v] = true
			total += g.Degree(v)
		}
	}
	return total
}

// BallAround returns the vertices at BFS distance at most radius from v
// (the set B_ℓ(v) of Section 3.3), and the subset at exactly that
// distance (the leaf set L(v)).
func (g *Graph) BallAround(v, radius int) (ball, leaves []int) {
	dist := make(map[int]int, 64)
	dist[v] = 0
	queue := []int{v}
	ball = append(ball, v)
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if dist[x] == radius {
			leaves = append(leaves, x)
			continue
		}
		for _, h := range g.Adj(x) {
			if _, ok := dist[int(h.To)]; !ok {
				dist[int(h.To)] = dist[x] + 1
				ball = append(ball, int(h.To))
				queue = append(queue, int(h.To))
			}
		}
	}
	return ball, leaves
}
