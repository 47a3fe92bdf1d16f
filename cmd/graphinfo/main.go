// Command graphinfo generates (or reads) a graph and prints the
// structural quantities the paper's bounds are stated in: degrees,
// connectivity, bipartiteness, girth, eigenvalue gap, conductance
// bracket, ℓ-goodness, short-cycle census, and the evaluated theorem
// bounds.
//
//	graphinfo -graph regular -n 2000 -degree 4
//	graphinfo -in mygraph.edges
//	graphinfo -graph hypercube -dim 8 -dot h8.dot
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/spectral"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphinfo:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphKind = flag.String("graph", "regular", "graph family: "+gen.FamilyNames)
		n         = flag.Int("n", 1000, "number of vertices")
		degree    = flag.Int("degree", 4, "degree for -graph regular")
		dim       = flag.Int("dim", 8, "dimension for -graph hypercube")
		seed      = flag.Uint64("seed", 1, "seed for random families")
		inPath    = flag.String("in", "", "read an edge-list file instead of generating")
		outPath   = flag.String("out", "", "write the graph as an edge list to this path")
		dotPath   = flag.String("dot", "", "write Graphviz DOT to this path")
		horizon   = flag.Int("horizon", 0, "ℓ-goodness/census horizon (0 = ceil(ln n)+2)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "graphinfo: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	var g *graph.Graph
	var err error
	if *inPath != "" {
		f, ferr := os.Open(*inPath)
		if ferr != nil {
			return ferr
		}
		g, err = graph.ReadEdgeList(f)
		f.Close()
	} else {
		r := rand.New(rng.New(rng.KindXoshiro, *seed))
		g, err = gen.ByName(*graphKind, *n, *degree, *dim, r)
	}
	if err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return err
	}

	fmt.Printf("n=%d m=%d\n", g.N(), g.M())
	fmt.Printf("degrees: min=%d max=%d even=%v", g.MinDegree(), g.MaxDegree(), g.IsEvenDegree())
	if d, ok := g.IsRegular(); ok {
		fmt.Printf(" regular=%d", d)
	}
	fmt.Println()
	fmt.Printf("simple=%v connected=%v bipartite=%v\n", g.IsSimple(), g.IsConnected(), g.IsBipartite())
	girth := g.Girth()
	fmt.Printf("girth=%d\n", girth)
	if g.N() <= 2000 {
		fmt.Printf("diameter=%d\n", g.Diameter())
	}

	gap, err := spectral.ComputeGap(g, spectral.Options{Tol: 1e-8})
	if err != nil {
		return err
	}
	lazy := spectral.LazyGap(gap)
	fmt.Printf("λ2=%.6f λn=%.6f λmax=%.6f gap=%.6f lazy-gap=%.6f\n",
		gap.Lambda2, gap.LambdaN, gap.LambdaMax, gap.Value, lazy.Value)

	if g.N() <= 20 {
		phi, err := spectral.Conductance(g)
		if err == nil {
			lo, hi := spectral.CheegerBounds(phi)
			fmt.Printf("conductance Φ=%.6f (exact); Cheeger: %.4f ≤ λ2 ≤ %.4f\n", phi, lo, hi)
		}
	} else {
		phi, err := spectral.SweepConductance(g, spectral.Options{})
		if err == nil {
			fmt.Printf("conductance Φ ≤ %.6f (sweep cut upper bound)\n", phi)
		}
	}

	h := *horizon
	if h <= 0 {
		h = int(math.Log(float64(g.N()))) + 2
	}
	cycles, err := core.Census(g, h, 1<<18)
	if err != nil {
		fmt.Printf("cycle census: incomplete at horizon %d (%v)\n", h, err)
	} else {
		counts := core.CycleCounts(cycles, h)
		fmt.Printf("short cycles (≤%d):", h)
		for k, c := range counts {
			if c > 0 {
				fmt.Printf(" N_%d=%d", k, c)
			}
		}
		fmt.Println()
		if d, ok := g.IsRegular(); ok && d >= 3 {
			fmt.Printf("expected (Poisson, random %d-regular):", d)
			for k := 3; k <= h; k++ {
				fmt.Printf(" E N_%d=%.2f", k, core.ExpectedCycleCount(d, k))
			}
			fmt.Println()
		}
		fmt.Printf("short cycles vertex-disjoint: %v\n", core.VertexDisjointShortCycles(cycles))
	}

	if g.IsEvenDegree() {
		lres, err := core.LGoodGraph(g, h)
		if err == nil {
			exact := "="
			if !lres.Exact {
				exact = "≥"
			}
			fmt.Printf("ℓ-goodness: ℓ(G) %s %d (horizon %d)\n", exact, lres.Ell, h)
			fmt.Printf("Theorem 1 bound: %.0f\n", core.Theorem1Bound(g.N(), float64(lres.Ell), lazy.Value))
		}
		fmt.Printf("Theorem 3 bound: %.0f\n",
			core.Theorem3Bound(g.N(), g.M(), max(1, girth), g.MaxDegree(), lazy.Value))
	} else {
		fmt.Println("odd-degree vertices present: Theorem 1/3 hypotheses not met (Section 5)")
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := g.WriteEdgeList(f); err != nil {
			return err
		}
	}
	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(g.DOT("G")), 0o644); err != nil {
			return err
		}
	}
	return nil
}
