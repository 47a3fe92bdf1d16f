package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/walk"
)

func TestCommuteMatrixCycle(t *testing.T) {
	// On C_n, K(u,v) = 2·m·R_eff = 2n·k(n−k)/n = 2k(n−k) for distance k.
	n := 8
	g, err := gen.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	k, err := CommuteMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			d := u - v
			if d < 0 {
				d = -d
			}
			if n-d < d {
				d = n - d
			}
			want := float64(2 * d * (n - d))
			if math.Abs(k[u][v]-want) > 1e-9 {
				t.Errorf("K(%d,%d) = %v, want %v", u, v, k[u][v], want)
			}
		}
	}
}

func TestCommuteEdgeBound(t *testing.T) {
	// For any edge {u,v}: K(u,v) = 2m·R_eff(u,v) ≤ 2m.
	g, err := gen.RandomRegular(newRand(90), 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	k, err := CommuteMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	maxC := 0.0
	for _, e := range g.Edges() {
		if !e.IsLoop() {
			maxC = max(maxC, k[e.U][e.V])
		}
	}
	if maxC > float64(2*g.M())+1e-9 {
		t.Errorf("edge commute %v exceeds 2m = %d", maxC, 2*g.M())
	}
	if maxC <= 0 {
		t.Error("edge commute must be positive")
	}
}

func TestMatthewsLowerBoundBelowTruth(t *testing.T) {
	// The bound must sit below the exact cover time on small graphs.
	g, err := gen.RandomRegular(newRand(91), 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := MatthewsLowerBound(g)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactCoverTimeSRW(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lb > exact {
		t.Errorf("Matthews bound %v exceeds exact cover %v", lb, exact)
	}
	if lb <= 0 {
		t.Error("bound must be positive on n >= 3")
	}
}

func TestMatthewsCycleScalesQuadratically(t *testing.T) {
	// On C_n the cover time is Θ(n²); the Matthews bound via antipodal
	// commute (≈ n²/2 · log 2 / 2) must capture the n² scale.
	for _, n := range []int{10, 20, 40} {
		g, err := gen.Cycle(n)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := MatthewsLowerBound(g)
		if err != nil {
			t.Fatal(err)
		}
		if lb < float64(n*n)/8 {
			t.Errorf("C%d: bound %v too weak for Θ(n²) cover", n, lb)
		}
	}
}

func TestMatthewsVsMonteCarloSRW(t *testing.T) {
	g, err := gen.RandomRegular(newRand(92), 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := MatthewsLowerBound(g)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 50
	var total int64
	for i := 0; i < trials; i++ {
		w := walk.NewSimple(g, newRand(int64(300+i)), 0)
		s, err := walk.VertexCoverSteps(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		total += s
	}
	mc := float64(total) / trials
	if lb > mc*1.1 {
		t.Errorf("Matthews bound %v above measured cover %v", lb, mc)
	}
}

func TestMatthewsErrors(t *testing.T) {
	g, err := gen.Cycle(500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MatthewsLowerBound(g); err == nil {
		t.Error("n > 400 should be refused")
	}
	if _, err := CommuteMatrix(g); err == nil {
		t.Error("n > 400 should be refused")
	}
	small, err := gen.Complete(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MatthewsLowerBound(small); err == nil {
		t.Error("n < 3 should be refused")
	}
}

func TestBridgeCommuteIdentity(t *testing.T) {
	// K(u,v) = 2m exactly when {u,v} is a bridge (R_eff = 1), else < 2m.
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // triangle
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3}, // triangle
		{U: 2, V: 3}, // bridge
	})
	k, err := CommuteMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	twoM := float64(2 * g.M())
	isBridge := make(map[int]bool)
	for _, b := range g.Bridges() {
		isBridge[b] = true
	}
	for id, e := range g.Edges() {
		c := k[e.U][e.V]
		if isBridge[id] {
			if math.Abs(c-twoM) > 1e-9 {
				t.Errorf("bridge %v: K = %v, want 2m = %v", e, c, twoM)
			}
		} else if c >= twoM-1e-9 {
			t.Errorf("non-bridge %v: K = %v should be < 2m = %v", e, c, twoM)
		}
	}
}
