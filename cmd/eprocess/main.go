// Command eprocess runs a single walk process on a generated graph and
// reports cover times, phase statistics and the relevant theorem
// bounds. It is the quickest way to poke at the library:
//
//	eprocess -graph regular -n 10000 -degree 4 -process eprocess
//	eprocess -graph hypercube -dim 10 -process srw
//	eprocess -graph torus -n 1024 -process rotor
//	eprocess -graph regular -n 2000 -degree 4 -process eprocess -rule adversary -verify
//
// With -verify the run checks Observations 10–12 online (even-degree
// graphs only) and fails loudly on any violation.
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
	"repro/internal/walk"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "eprocess:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphKind = flag.String("graph", "regular", "graph family: "+gen.FamilyNames)
		n         = flag.Int("n", 10000, "number of vertices (torus and margulis use ⌊√n⌋ per side)")
		degree    = flag.Int("degree", 4, "degree for -graph regular")
		dim       = flag.Int("dim", 10, "dimension for -graph hypercube")
		process   = flag.String("process", "eprocess", "process: eprocess | srw | lazy | rwc2 | rwc3 | rotor | least-used | oldest-first")
		rule      = flag.String("rule", "uniform", "E-process rule A: uniform | lowest | highest | round-robin | adversary | greedy")
		seed      = flag.Uint64("seed", 1, "master seed")
		start     = flag.Int("start", 0, "start vertex")
		verify    = flag.Bool("verify", false, "check Observations 10-12 online (E-process on even-degree graphs)")
		spectrum  = flag.Bool("spectral", true, "compute the eigenvalue gap and print theorem bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "eprocess: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	ruleA, err := ruleByName(*rule)
	if err != nil {
		return err
	}

	r := rand.New(rng.New(rng.KindXoshiro, *seed))
	g, err := gen.ByName(*graphKind, *n, *degree, *dim, r)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s  (n=%d, m=%d, even-degree=%v, bipartite=%v)\n",
		*graphKind, g.N(), g.M(), g.IsEvenDegree(), g.IsBipartite())

	if *start < 0 || *start >= g.N() {
		return fmt.Errorf("start vertex %d out of range", *start)
	}

	if *verify {
		if *process != "eprocess" {
			return fmt.Errorf("-verify requires -process eprocess")
		}
		e := walk.NewEProcess(g, r, ruleA, *start)
		ct, st, err := core.VerifiedRun(e, 0)
		if err != nil {
			return err
		}
		report(g, ct, &st)
		fmt.Println("invariants: Observations 10, 11, 12 verified ✓")
	} else {
		p, err := buildProcess(*process, ruleA, g, r, *start)
		if err != nil {
			return err
		}
		ct, err := walk.Cover(p, 0)
		if err != nil {
			return err
		}
		var st *walk.Stats
		if e, ok := p.(*walk.EProcess); ok {
			s := e.Stats()
			st = &s
		}
		report(g, ct, st)
	}

	if *spectrum {
		gap, err := spectral.ComputeGap(g, spectral.Options{Tol: 1e-8})
		if err != nil {
			return fmt.Errorf("spectral: %w", err)
		}
		lazy := spectral.LazyGap(gap)
		fmt.Printf("spectral: λ2=%.5f λn=%.5f gap=%.5f (lazy gap %.5f)\n",
			gap.Lambda2, gap.LambdaN, gap.Value, lazy.Value)
		if g.IsEvenDegree() {
			horizon := int(math.Log(float64(g.N()))) + 2
			if g.N() > 50000 {
				horizon = 6 // keep the census cheap on huge graphs
			}
			lres, err := core.LGoodGraph(g, horizon)
			if err == nil {
				exact := "exactly"
				if !lres.Exact {
					exact = "at least"
				}
				fmt.Printf("ℓ-goodness: graph is %s %d-good\n", exact, lres.Ell)
				fmt.Printf("Theorem 1 bound: %.0f steps (unit constant)\n",
					core.Theorem1Bound(g.N(), float64(lres.Ell), lazy.Value))
			}
			fmt.Printf("Theorem 3 bound: %.0f steps (unit constant)\n",
				core.Theorem3Bound(g.N(), g.M(), max(1, g.Girth()), g.MaxDegree(), lazy.Value))
		}
		fmt.Printf("lower bounds: Radzik (n/4)log(n/2)=%.0f, Feige n·ln n=%.0f (for reversible walks)\n",
			core.RadzikLowerBound(g.N()), core.FeigeLowerBound(g.N()))
	}
	return nil
}

func report(g *graph.Graph, ct walk.CoverTimes, st *walk.Stats) {
	fmt.Printf("vertex cover: %d steps  (%.3f per vertex)\n", ct.Vertex, float64(ct.Vertex)/float64(g.N()))
	fmt.Printf("edge cover:   %d steps  (%.3f per edge)\n", ct.Edge, float64(ct.Edge)/float64(g.M()))
	if st != nil {
		fmt.Printf("phases: %d blue steps (≤ m=%d), %d red steps, %d blue phases, %d red phases\n",
			st.BlueSteps, g.M(), st.RedSteps, st.BluePhases, st.RedPhases)
	}
}

// ruleByName resolves the -rule flag; an unknown name is an error
// rather than a silent fall-back to the uniform rule.
func ruleByName(name string) (walk.Rule, error) {
	switch name {
	case "uniform":
		return walk.Uniform{}, nil
	case "lowest":
		return walk.LowestEdgeFirst{}, nil
	case "highest":
		return walk.HighestEdgeFirst{}, nil
	case "round-robin":
		return &walk.RoundRobin{}, nil
	case "adversary":
		return walk.TowardVisited{}, nil
	case "greedy":
		return walk.TowardUnvisited{}, nil
	default:
		return nil, fmt.Errorf("unknown rule %q (want uniform | lowest | highest | round-robin | adversary | greedy)", name)
	}
}

func buildProcess(name string, rule walk.Rule, g *graph.Graph, r *rand.Rand, start int) (walk.Process, error) {
	switch name {
	case "eprocess":
		return walk.NewEProcess(g, r, rule, start), nil
	case "srw":
		return walk.NewSimple(g, r, start), nil
	case "lazy":
		return walk.NewLazy(g, r, start), nil
	case "rwc2":
		return walk.NewChoice(g, r, 2, start), nil
	case "rwc3":
		return walk.NewChoice(g, r, 3, start), nil
	case "rotor":
		return walk.NewRotor(g, r, start), nil
	case "least-used":
		return walk.NewLeastUsedFirst(g, r, start), nil
	case "oldest-first":
		return walk.NewOldestFirst(g, r, start), nil
	default:
		return nil, fmt.Errorf("unknown process %q", name)
	}
}
