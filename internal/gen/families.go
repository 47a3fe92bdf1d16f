package gen

import (
	"fmt"

	"repro/internal/graph"
)

// checkSize returns a wrapped graph.ErrTooLarge when family's instance,
// with n vertices and m edges, would break the graph package's 32-bit
// size bounds. Families call it before they allocate, so an oversize
// argument fails fast instead of building billions of edges. n and m
// are float64 so callers can form them from their arguments without
// int overflow; both are exact wherever they are near the bounds.
func checkSize(family string, n, m float64) error {
	if n > graph.MaxSize || m > graph.MaxEdges {
		return fmt.Errorf("gen: %s with n=%.0f, m=%.0f: %w", family, n, m, graph.ErrTooLarge)
	}
	return nil
}

// Cycle returns the n-cycle C_n (n ≥ 3), the minimal connected
// 2-regular even-degree graph. Its girth equals n, making long cycles
// the extreme case for the Theorem 3 girth dependence.
func Cycle(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("gen: cycle needs n >= 3, got %d", n)
	}
	if err := checkSize("cycle", float64(n), float64(n)); err != nil {
		return nil, err
	}
	return graph.NewFromEdges(n, cycleEdges(make([]graph.Edge, 0, n), n))
}

// cycleEdges appends the n edges {i, i+1 mod n} of C_n to edges.
func cycleEdges(edges []graph.Edge, n int) []graph.Edge {
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: (i + 1) % n})
	}
	return edges
}

// DoubleCycle returns the 4-regular multigraph on n vertices formed by
// doubling every edge of C_n. It is the smallest even-degree "bad
// expander" family: λmax → 1 as n grows, exercising the eigenvalue-gap
// term of Theorem 1.
func DoubleCycle(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("gen: cycle needs n >= 3, got %d", n)
	}
	if err := checkSize("double cycle", float64(n), 2*float64(n)); err != nil {
		return nil, err
	}
	edges := cycleEdges(make([]graph.Edge, 0, 2*n), n)
	return graph.NewFromEdges(n, cycleEdges(edges, n))
}

// Complete returns the complete graph K_n.
func Complete(n int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: complete graph needs n >= 1, got %d", n)
	}
	if err := checkSize("complete graph", float64(n), float64(n)*float64(n-1)/2); err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	return graph.NewFromEdges(n, edges)
}

// CompleteBipartite returns K_{a,b}: vertices 0..a-1 on one side,
// a..a+b-1 on the other. Bipartite, so λn = -1 for the simple walk —
// the canonical reason the paper makes walks lazy.
func CompleteBipartite(a, b int) (*graph.Graph, error) {
	if a < 1 || b < 1 {
		return nil, fmt.Errorf("gen: K_{a,b} needs a,b >= 1, got %d,%d", a, b)
	}
	if err := checkSize("K_{a,b}", float64(a)+float64(b), float64(a)*float64(b)); err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, 0, a*b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			edges = append(edges, graph.Edge{U: i, V: a + j})
		}
	}
	return graph.NewFromEdges(a+b, edges)
}

// Hypercube returns the r-dimensional hypercube H_r on n = 2^r vertices,
// with vertices adjacent iff their labels differ in one bit. This is the
// paper's Section 1 case study: the E-process covers its edges in
// Θ(n log n) versus Θ(n log² n) for the simple random walk.
func Hypercube(r int) (*graph.Graph, error) {
	if r < 1 || r > 26 {
		return nil, fmt.Errorf("gen: hypercube dimension %d out of [1,26]", r)
	}
	n := 1 << uint(r)
	edges := make([]graph.Edge, 0, n*r/2)
	for v := 0; v < n; v++ {
		for b := 0; b < r; b++ {
			if w := v ^ (1 << uint(b)); v < w {
				edges = append(edges, graph.Edge{U: v, V: w})
			}
		}
	}
	return graph.NewFromEdges(n, edges)
}

// Torus returns the rows×cols toroidal grid: 4-regular (even degree)
// when both dimensions exceed 2. Avin & Krishnamachari's RWC(d)
// experiments used this family.
func Torus(rows, cols int) (*graph.Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("gen: torus needs both dims >= 3, got %dx%d", rows, cols)
	}
	cells := float64(rows) * float64(cols)
	if err := checkSize("torus", cells, 2*cells); err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, 0, 2*rows*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			edges = append(edges,
				graph.Edge{U: id(r, c), V: id((r+1)%rows, c)},
				graph.Edge{U: id(r, c), V: id(r, (c+1)%cols)})
		}
	}
	return graph.NewFromEdges(rows*cols, edges)
}

// Circulant returns the circulant graph C_n(offsets): vertex i adjacent
// to i±s mod n for each s in offsets. With distinct offsets not equal to
// n/2, the graph is 2·len(offsets)-regular — an easy deterministic
// even-degree family with tunable girth.
func Circulant(n int, offsets []int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("gen: circulant needs n >= 3, got %d", n)
	}
	seen := make(map[int]bool, len(offsets))
	for _, s := range offsets {
		if s <= 0 || s >= n {
			return nil, fmt.Errorf("gen: circulant offset %d out of (0,%d)", s, n)
		}
		if 2*s == n {
			return nil, fmt.Errorf("gen: circulant offset n/2 = %d gives odd degree", s)
		}
		canon := s
		if n-s < s {
			canon = n - s
		}
		if seen[canon] {
			return nil, fmt.Errorf("gen: duplicate circulant offset %d", s)
		}
		seen[canon] = true
	}
	if err := checkSize("circulant", float64(n), float64(n)*float64(len(offsets))); err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, 0, n*len(offsets))
	for v := 0; v < n; v++ {
		for _, s := range offsets {
			edges = append(edges, graph.Edge{U: v, V: (v + s) % n})
		}
	}
	return graph.NewFromEdges(n, edges)
}

// Lollipop returns the lollipop graph: a clique on cliqueN vertices with
// a path of pathN further vertices attached to clique vertex 0. It is
// the classical worst case for random-walk hitting times, used by the
// lower-bound demonstrations.
func Lollipop(cliqueN, pathN int) (*graph.Graph, error) {
	if cliqueN < 3 || pathN < 1 {
		return nil, fmt.Errorf("gen: lollipop needs clique >= 3 and path >= 1, got %d,%d", cliqueN, pathN)
	}
	c, p := float64(cliqueN), float64(pathN)
	if err := checkSize("lollipop", c+p, c*(c-1)/2+p); err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, 0, cliqueN*(cliqueN-1)/2+pathN)
	for i := 0; i < cliqueN; i++ {
		for j := i + 1; j < cliqueN; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	prev := 0
	for i := 0; i < pathN; i++ {
		next := cliqueN + i
		edges = append(edges, graph.Edge{U: prev, V: next})
		prev = next
	}
	return graph.NewFromEdges(cliqueN+pathN, edges)
}

// Margulis returns the Margulis expander on n = k² vertices: vertex
// (x,y) of Z_k × Z_k is joined to (x+y, y), (x−y, y), (x, y+x) and
// (x, y−x) (mod k). The result is an 8-regular even-degree multigraph
// family with a uniform positive spectral gap — a deterministic
// stand-in for the Lubotzky–Phillips–Sarnak Ramanujan graphs the paper
// cites for high-girth expanders.
func Margulis(k int) (*graph.Graph, error) {
	if k < 2 {
		return nil, fmt.Errorf("gen: Margulis needs k >= 2, got %d", k)
	}
	cells := float64(k) * float64(k)
	if err := checkSize("Margulis", cells, 4*cells); err != nil {
		return nil, err
	}
	n := k * k
	edges := make([]graph.Edge, 0, 4*n)
	id := func(x, y int) int { return ((x%k+k)%k)*k + ((y%k + k) % k) }
	for x := 0; x < k; x++ {
		for y := 0; y < k; y++ {
			v := id(x, y)
			edges = append(edges,
				graph.Edge{U: v, V: id(x+y, y)},
				graph.Edge{U: v, V: id(x, y+x)},
				graph.Edge{U: v, V: id(x+y+1, y)},
				graph.Edge{U: v, V: id(x, y+x+1)})
		}
	}
	return graph.NewFromEdges(n, edges)
}
