package spectral

import (
	"errors"
	"math"

	"repro/internal/graph"
)

// Stationary returns the stationary distribution π of the simple random
// walk on g: π_v = d(v)/2m.
func Stationary(g *graph.Graph) []float64 {
	pi := make([]float64, g.N())
	total := float64(g.DegreeSum())
	for v := range pi {
		pi[v] = float64(g.Degree(v)) / total
	}
	return pi
}

// EvolveDistribution applies t steps of the walk's transition operator
// to the distribution rho (rho P^t). If lazy is true the lazy kernel
// (P+I)/2 is used, matching the paper's Section 2.1 device. rho is not
// modified.
func EvolveDistribution(g *graph.Graph, rho []float64, t int, lazy bool) ([]float64, error) {
	if len(rho) != g.N() {
		return nil, errors.New("spectral: distribution length mismatch")
	}
	cur := append([]float64(nil), rho...)
	next := make([]float64, g.N())
	for step := 0; step < t; step++ {
		for i := range next {
			next[i] = 0
		}
		for v := 0; v < g.N(); v++ {
			if cur[v] == 0 {
				continue
			}
			share := cur[v] / float64(g.Degree(v))
			for _, h := range g.Adj(v) {
				next[h.To] += share
			}
		}
		if lazy {
			for i := range next {
				next[i] = (next[i] + cur[i]) / 2
			}
		}
		cur, next = next, cur
	}
	return cur, nil
}

// TVDistance returns the total variation distance between two
// distributions: (1/2)·Σ|p_i − q_i|.
func TVDistance(p, q []float64) float64 {
	sum := 0.0
	for i := range p {
		sum += math.Abs(p[i] - q[i])
	}
	return sum / 2
}

// MaxPointwiseError returns max_v |p_v − q_v| — the quantity Lemma 7
// bounds by 1/n³ after T = 6·log n/(1−λmax) steps.
func MaxPointwiseError(p, q []float64) float64 {
	worst := 0.0
	for i := range p {
		if d := math.Abs(p[i] - q[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// EmpiricalMixingTime returns the first t ≤ maxT at which the walk
// started at vertex start is within eps of π in max pointwise error
// (lazy kernel). It returns maxT+1 if the threshold is never met.
func EmpiricalMixingTime(g *graph.Graph, start int, eps float64, maxT int) (int, error) {
	if start < 0 || start >= g.N() {
		return 0, errors.New("spectral: start out of range")
	}
	pi := Stationary(g)
	rho := make([]float64, g.N())
	rho[start] = 1
	cur := rho
	for t := 0; t <= maxT; t++ {
		if MaxPointwiseError(cur, pi) <= eps {
			return t, nil
		}
		next, err := EvolveDistribution(g, cur, 1, true)
		if err != nil {
			return 0, err
		}
		cur = next
	}
	return maxT + 1, nil
}
