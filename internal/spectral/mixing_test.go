package spectral

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

func TestStationarySumsToOne(t *testing.T) {
	g, err := gen.Lollipop(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	pi := Stationary(g)
	sum := 0.0
	for _, p := range pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("π sums to %v", sum)
	}
	// Clique vertices have higher π than path vertices.
	if pi[0] <= pi[len(pi)-1] {
		t.Error("stationary mass should concentrate on the clique")
	}
}

func TestEvolvePreservesMass(t *testing.T) {
	g, err := gen.RandomRegular(rand.New(rand.NewSource(1)), 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	rho := make([]float64, g.N())
	rho[3] = 1
	for _, lazy := range []bool{false, true} {
		out, err := EvolveDistribution(g, rho, 25, lazy)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range out {
			sum += p
			if p < 0 {
				t.Fatalf("negative probability %v", p)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("lazy=%v: mass %v after evolution", lazy, sum)
		}
	}
	// Input must not be modified.
	if rho[3] != 1 {
		t.Error("EvolveDistribution mutated its input")
	}
}

func TestEvolveConvergesToStationary(t *testing.T) {
	g, err := gen.RandomRegular(rand.New(rand.NewSource(2)), 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	pi := Stationary(g)
	rho := make([]float64, g.N())
	rho[0] = 1
	out, err := EvolveDistribution(g, rho, 300, true)
	if err != nil {
		t.Fatal(err)
	}
	if tv := TVDistance(out, pi); tv > 1e-6 {
		t.Errorf("TV distance %v after 300 lazy steps", tv)
	}
}

func TestEvolveBipartiteNeedsLaziness(t *testing.T) {
	// On C4 (bipartite) the plain kernel oscillates forever; the lazy
	// kernel converges.
	g, err := gen.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	pi := Stationary(g)
	rho := make([]float64, g.N())
	rho[0] = 1
	plain, err := EvolveDistribution(g, rho, 101, false)
	if err != nil {
		t.Fatal(err)
	}
	if tv := TVDistance(plain, pi); tv < 0.4 {
		t.Errorf("bipartite plain kernel should not converge, TV = %v", tv)
	}
	lazy, err := EvolveDistribution(g, rho, 101, true)
	if err != nil {
		t.Fatal(err)
	}
	if tv := TVDistance(lazy, pi); tv > 1e-6 {
		t.Errorf("lazy kernel should converge, TV = %v", tv)
	}
}

func TestLemma7MixingTimeBound(t *testing.T) {
	// Lemma 7: with T = 6·log n/(1−λmax) (lazy chain), every pointwise
	// error is ≤ 1/n³.
	g, err := gen.RandomRegular(rand.New(rand.NewSource(3)), 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := ComputeGap(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lazyGap := LazyGap(gap).Value
	n := float64(g.N())
	T := int(math.Ceil(6 * math.Log(n) / lazyGap))
	pi := Stationary(g)
	rho := make([]float64, g.N())
	rho[0] = 1
	out, err := EvolveDistribution(g, rho, T, true)
	if err != nil {
		t.Fatal(err)
	}
	if worst := MaxPointwiseError(out, pi); worst > 1/(n*n*n) {
		t.Errorf("after T=%d steps pointwise error %v exceeds 1/n³ = %v", T, worst, 1/(n*n*n))
	}
}

func TestEquation5ConvergenceBound(t *testing.T) {
	// |P^t_u(x) − π_x| ≤ sqrt(π_x/π_u)·λmax^t on a non-bipartite graph
	// with the plain kernel.
	g, err := gen.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := ComputeGap(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pi := Stationary(g)
	rho := make([]float64, g.N())
	rho[0] = 1
	cur := rho
	for step := 1; step <= 12; step++ {
		next, err := EvolveDistribution(g, cur, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		for x := 0; x < g.N(); x++ {
			bound := math.Sqrt(pi[x]/pi[0]) * math.Pow(gap.LambdaMax, float64(step))
			if diff := math.Abs(cur[x] - pi[x]); diff > bound+1e-12 {
				t.Fatalf("step %d vertex %d: |P^t−π| = %v exceeds eq.(5) bound %v", step, x, diff, bound)
			}
		}
	}
}

func TestEmpiricalMixingTime(t *testing.T) {
	g, err := gen.RandomRegular(rand.New(rand.NewSource(4)), 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := EmpiricalMixingTime(g, 0, 1e-4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 || tm > 1000 {
		t.Errorf("empirical mixing time %d out of range", tm)
	}
	if _, err := EmpiricalMixingTime(g, -1, 1e-4, 10); err == nil {
		t.Error("bad start should fail")
	}
}

func TestEvolveLengthMismatch(t *testing.T) {
	g, err := gen.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvolveDistribution(g, []float64{1}, 1, false); err == nil {
		t.Error("length mismatch should fail")
	}
}
