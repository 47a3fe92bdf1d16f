package repro_test

import (
	"fmt"
	"math/rand"

	"repro"
)

// ExampleNewEProcess runs the paper's E-process on a deterministic
// even-degree graph and shows the Observation 12 phase split: on a
// fresh cycle the whole cover is a single blue phase of exactly m
// steps.
func ExampleNewEProcess() {
	g, err := repro.Cycle(12)
	if err != nil {
		panic(err)
	}
	r := rand.New(repro.NewSource(repro.KindXoshiro, 1))
	p := repro.NewEProcess(g, r, repro.Uniform{}, 0)
	steps, err := repro.EdgeCoverSteps(p, 0)
	if err != nil {
		panic(err)
	}
	st := p.Stats()
	fmt.Printf("edge cover in %d steps: %d blue, %d red\n", steps, st.BlueSteps, st.RedSteps)
	// Output:
	// edge cover in 12 steps: 12 blue, 0 red
}

// ExampleGraph_EulerCircuit shows the structural fact behind
// Observation 10: connected even-degree graphs decompose into closed
// trails.
func ExampleGraph_EulerCircuit() {
	g, err := repro.Cycle(5)
	if err != nil {
		panic(err)
	}
	trail, err := g.EulerCircuit(0)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(trail) == g.M(), g.VerifyCircuit(0, trail) == nil)
	// Output:
	// true true
}

// ExampleRadzikLowerBound evaluates the Theorem 5 floor for reversible
// walks, which the E-process is allowed to beat.
func ExampleRadzikLowerBound() {
	fmt.Printf("%.0f\n", repro.RadzikLowerBound(1024))
	// Output:
	// 1597
}

// ExampleEdgeCoverSandwich shows the eq. (3) bounds.
func ExampleEdgeCoverSandwich() {
	lo, hi := repro.EdgeCoverSandwich(2000, 15000)
	fmt.Printf("%.0f %.0f\n", lo, hi)
	// Output:
	// 2000 17000
}

// ExampleLGoodGraph computes the ℓ-goodness of the bowtie graph: the
// shared vertex needs both triangles (5 vertices), but the degree-2
// vertices close with a single triangle, so ℓ(G) = 3.
func ExampleLGoodGraph() {
	g, err := repro.NewGraphFromEdges(5, []repro.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 0, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
	})
	if err != nil {
		panic(err)
	}
	res, err := repro.LGoodGraph(g, 5)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Ell, res.Exact)
	// Output:
	// 3 true
}

// ExampleExactReturnTime verifies the Section 2.2 identity
// E_u(T_u^+) = 2m/d(u) on the complete graph K5.
func ExampleExactReturnTime() {
	g, err := repro.Complete(5)
	if err != nil {
		panic(err)
	}
	ret, err := repro.ExactReturnTime(g, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.4f (2m/d = %.4f)\n", ret, float64(2*g.M())/float64(g.Degree(0)))
	// Output:
	// 5.0000 (2m/d = 5.0000)
}

// ExampleVerifiedRun runs the E-process under each shipped rule A,
// the adversarial TowardVisited among them, on one even-degree
// expander and checks Observations 10–12 online. Theorem 1's linear
// cover time does not depend on the rule.
func ExampleVerifiedRun() {
	const n = 200
	g, err := repro.RandomRegularSW(rand.New(repro.NewSource(repro.KindXoshiro, 2012)), n, 4)
	if err != nil {
		panic(err)
	}
	rules := []repro.Rule{
		repro.Uniform{},
		repro.LowestEdgeFirst{},
		repro.HighestEdgeFirst{},
		&repro.RoundRobin{},
		repro.TowardVisited{},
		repro.TowardUnvisited{},
	}
	for _, rule := range rules {
		e := repro.NewEProcess(g, rand.New(repro.NewSource(repro.KindXoshiro, 2013)), rule, 0)
		ct, _, err := repro.VerifiedRun(e, 0)
		if err != nil {
			fmt.Printf("%s: %v\n", rule.Name(), err)
			continue
		}
		fmt.Printf("%-24s Observations 10-12 held, covered: C_V = %.2fn, C_E = %.2fn\n",
			rule.Name(), float64(ct.Vertex)/n, float64(ct.Edge)/n)
	}
	// Output:
	// uniform                  Observations 10-12 held, covered: C_V = 1.82n, C_E = 2.03n
	// lowest-edge-first        Observations 10-12 held, covered: C_V = 1.74n, C_E = 2.07n
	// highest-edge-first       Observations 10-12 held, covered: C_V = 1.86n, C_E = 2.00n
	// round-robin              Observations 10-12 held, covered: C_V = 1.74n, C_E = 2.07n
	// adversary-toward-visited Observations 10-12 held, covered: C_V = 2.00n, C_E = 2.08n
	// toward-unvisited         Observations 10-12 held, covered: C_V = 1.60n, C_E = 2.00n
}
