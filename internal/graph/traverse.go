package graph

// BFSFrom computes breadth-first distances from root. Unreachable
// vertices get distance -1.
func (g *Graph) BFSFrom(root int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	queue := make([]int, 0, g.N())
	queue = append(queue, root)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.Adj(v) {
			if dist[h.To] == -1 {
				dist[h.To] = dist[v] + 1
				queue = append(queue, int(h.To))
			}
		}
	}
	return dist
}

// IsConnected reports whether the graph is connected. A single-vertex
// graph is connected.
func (g *Graph) IsConnected() bool {
	dist := g.BFSFrom(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// Components returns, for each vertex, the index of its connected
// component (components are numbered in order of their smallest vertex),
// together with the number of components.
func (g *Graph) Components() (label []int, count int) {
	label = make([]int, g.N())
	for i := range label {
		label[i] = -1
	}
	for v := 0; v < g.N(); v++ {
		if label[v] != -1 {
			continue
		}
		label[v] = count
		queue := []int{v}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, h := range g.Adj(x) {
				if label[h.To] == -1 {
					label[h.To] = count
					queue = append(queue, int(h.To))
				}
			}
		}
		count++
	}
	return label, count
}

// IsBipartite reports whether the graph is bipartite. A bipartite graph
// has eigenvalue λn = -1 for the simple random walk, so the walk must be
// made lazy for the paper's mixing bounds to apply (Section 2.1).
func (g *Graph) IsBipartite() bool {
	side := make([]int8, g.N()) // 0 unknown, 1 / 2 the two sides
	for start := 0; start < g.N(); start++ {
		if side[start] != 0 {
			continue
		}
		side[start] = 1
		queue := []int{start}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, h := range g.Adj(v) {
				if int(h.To) == v {
					return false // loop: odd closed walk of length 1
				}
				if side[h.To] == 0 {
					side[h.To] = 3 - side[v]
					queue = append(queue, int(h.To))
				} else if side[h.To] == side[v] {
					return false
				}
			}
		}
	}
	return true
}

// Diameter returns the largest breadth-first eccentricity, or -1 when the
// graph is disconnected. It runs a BFS from every vertex (O(n·m)), which
// is fine at experiment scale; for the rotor-router O(mD) comparisons we
// only need it on moderate graphs.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		for _, d := range g.BFSFrom(v) {
			if d == -1 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}
