package core

import (
	"errors"
	"math"

	"repro/internal/graph"
)

// MatthewsLowerBound returns a lower bound on the vertex cover time of
// a simple random walk on g via the Kahn–Kim–Lovász–Vu inequality the
// paper quotes in the proof of Theorem 5:
//
//	C_V(G) ≥ max_{A ⊆ V} K_A · log|A| / 2,   K_A = min_{i,j∈A} K(i,j).
//
// Maximising over all subsets is NP-hard in general; this routine
// returns the best value over the nested family obtained by greedily
// peeling the vertex whose removal most increases the minimum pairwise
// commute time — a certified lower bound on the true maximum, which is
// itself a lower bound on the cover time. Exact commute times come
// from the dense solver, so the result is otherwise rigorous.
//
// Intended for n up to a few hundred (n+1 dense solves of size n).
func MatthewsLowerBound(g *graph.Graph) (float64, error) {
	n := g.N()
	if n < 3 {
		return 0, errors.New("core: Matthews bound needs n >= 3")
	}
	if n > 400 {
		return 0, ErrTooLarge
	}
	if !g.IsConnected() {
		return 0, errors.New("core: Matthews bound needs a connected graph")
	}
	// All-pairs hitting times: h[t][u] = E_u(H_t).
	hit := make([][]float64, n)
	for t := 0; t < n; t++ {
		h, err := ExactHittingTimes(g, t)
		if err != nil {
			return 0, err
		}
		hit[t] = h
	}
	commute := func(i, j int) float64 { return hit[j][i] + hit[i][j] }

	// Greedy peeling: start from A = V; repeatedly delete one endpoint
	// of the minimising pair (the one whose removal gives the larger
	// new minimum), recording K_A log|A|/2 at every size.
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	size := n
	best := 0.0
	for size >= 2 {
		minI, minJ := -1, -1
		minK := math.Inf(1)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !alive[j] {
					continue
				}
				if k := commute(i, j); k < minK {
					minK, minI, minJ = k, i, j
				}
			}
		}
		if size >= 2 {
			if v := minK * math.Log(float64(size)) / 2; v > best {
				best = v
			}
		}
		if size == 2 {
			break
		}
		// Remove the endpoint whose removal raises the new minimum
		// commute more (evaluated one step ahead).
		gain := func(drop int) float64 {
			m := math.Inf(1)
			for i := 0; i < n; i++ {
				if !alive[i] || i == drop {
					continue
				}
				for j := i + 1; j < n; j++ {
					if !alive[j] || j == drop {
						continue
					}
					if k := commute(i, j); k < m {
						m = k
					}
				}
			}
			return m
		}
		if gain(minI) >= gain(minJ) {
			alive[minI] = false
		} else {
			alive[minJ] = false
		}
		size--
	}
	return best, nil
}

// CommuteMatrix returns the exact commute-time matrix K(i,j) for small
// graphs, for inspection and tests.
func CommuteMatrix(g *graph.Graph) ([][]float64, error) {
	n := g.N()
	if n > 400 {
		return nil, ErrTooLarge
	}
	hit := make([][]float64, n)
	for t := 0; t < n; t++ {
		h, err := ExactHittingTimes(g, t)
		if err != nil {
			return nil, err
		}
		hit[t] = h
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = hit[j][i] + hit[i][j]
		}
	}
	return out, nil
}
