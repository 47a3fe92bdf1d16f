package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// RandomGeometric returns a random geometric graph: n points uniform in
// the unit square, vertices adjacent when within Euclidean distance
// radius. Avin & Krishnamachari's RWC(d) study — the experimental
// precursor the paper cites — ran on this family. Connectivity is not
// guaranteed; use RandomGeometricConnected when the experiment requires
// a connected instance.
func RandomGeometric(r *rand.Rand, n int, radius float64) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: RGG needs n >= 1, got %d", n)
	}
	if radius <= 0 {
		return nil, fmt.Errorf("gen: RGG needs radius > 0, got %v", radius)
	}
	// m depends on the points, so only n is checked up front; the edge
	// loop stops at MaxEdges.
	if err := checkSize("RGG", float64(n), 0); err != nil {
		return nil, err
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	var edges []graph.Edge
	// Cell grid makes neighbour search O(n) in the sparse regime.
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	grid := make(map[[2]int][]int)
	cellOf := func(i int) [2]int {
		cx := int(xs[i] * float64(cells))
		cy := int(ys[i] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return [2]int{cx, cy}
	}
	for i := 0; i < n; i++ {
		grid[cellOf(i)] = append(grid[cellOf(i)], i)
	}
	r2 := radius * radius
	for i := 0; i < n; i++ {
		c := cellOf(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range grid[[2]int{c[0] + dx, c[1] + dy}] {
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						if len(edges) == graph.MaxEdges {
							return nil, fmt.Errorf("gen: RGG with n=%d has more than %d edges: %w", n, graph.MaxEdges, graph.ErrTooLarge)
						}
						edges = append(edges, graph.Edge{U: i, V: j})
					}
				}
			}
		}
	}
	return graph.NewFromEdges(n, edges)
}

// RandomGeometricConnected retries RandomGeometric until the instance is
// connected, growing the radius by 10% every few failures. The starting
// radius defaults to the connectivity threshold sqrt(2·ln n / (π n))
// when radius <= 0.
func RandomGeometricConnected(r *rand.Rand, n int, radius float64) (*graph.Graph, error) {
	if n == 1 {
		return graph.NewFromEdges(1, nil)
	}
	if radius <= 0 {
		radius = math.Sqrt(2 * math.Log(float64(n)) / (math.Pi * float64(n)))
	}
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g, err := RandomGeometric(r, n, radius)
		if err != nil {
			return nil, err
		}
		if g.IsConnected() {
			return g, nil
		}
		if attempt%5 == 4 {
			radius *= 1.1
		}
	}
	return nil, fmt.Errorf("gen: could not build connected RGG (n=%d)", n)
}
