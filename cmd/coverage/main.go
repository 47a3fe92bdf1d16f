// Command coverage records vertex-coverage curves — the step at which
// each fraction of the vertex set has been visited — for one or more
// processes on the same graph, exposing the mechanism behind Figure 1:
// the E-process front-loads coverage into its blue phases while the
// SRW pays a coupon-collector tail.
//
//	coverage -graph regular -n 20000 -degree 4 -processes srw,eprocess,rwc2
//	coverage -graph torus -n 1024 -csv curves.csv
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/walk"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "coverage:", err)
		os.Exit(1)
	}
}

var defaultFractions = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}

func run() error {
	var (
		graphKind = flag.String("graph", "regular", "graph family: "+gen.FamilyNames)
		n         = flag.Int("n", 10000, "number of vertices")
		degree    = flag.Int("degree", 4, "degree for -graph regular")
		dim       = flag.Int("dim", 10, "dimension for -graph hypercube")
		processes = flag.String("processes", "srw,eprocess,vprocess,rwc2,rotor", "comma-separated processes")
		seed      = flag.Uint64("seed", 1, "master seed")
		csvPath   = flag.String("csv", "", "write curves as CSV to this path")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "coverage: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	r := rand.New(rng.New(rng.KindXoshiro, *seed))
	g, err := gen.ByName(*graphKind, *n, *degree, *dim, r)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s (n=%d, m=%d)\n\n", *graphKind, g.N(), g.M())

	names := strings.Split(*processes, ",")
	type curve struct {
		name  string
		steps []int64
	}
	var curves []curve
	for _, name := range names {
		name = strings.TrimSpace(name)
		pr := rand.New(rng.New(rng.KindXoshiro, *seed+7))
		p, err := buildProcess(name, g, pr)
		if err != nil {
			return err
		}
		rec, err := trace.RunUntilVertexCover(p, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		steps, err := rec.VertexCoverageCurve(defaultFractions)
		if err != nil {
			return err
		}
		curves = append(curves, curve{name: name, steps: steps})
	}

	// Render: one row per fraction, one column per process.
	fmt.Printf("%-10s", "fraction")
	for _, c := range curves {
		fmt.Printf(" %14s", c.name)
	}
	fmt.Println()
	for i, f := range defaultFractions {
		fmt.Printf("%-10.2f", f)
		for _, c := range curves {
			fmt.Printf(" %14d", c.steps[i])
		}
		fmt.Println()
	}

	if *csvPath != "" {
		file, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer file.Close()
		fmt.Fprintf(file, "fraction")
		for _, c := range curves {
			fmt.Fprintf(file, ",%s", c.name)
		}
		fmt.Fprintln(file)
		for i, f := range defaultFractions {
			fmt.Fprintf(file, "%g", f)
			for _, c := range curves {
				fmt.Fprintf(file, ",%d", c.steps[i])
			}
			fmt.Fprintln(file)
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	return nil
}

func buildProcess(name string, g *graph.Graph, r *rand.Rand) (walk.Process, error) {
	switch name {
	case "srw":
		return walk.NewSimple(g, r, 0), nil
	case "eprocess":
		return walk.NewEProcess(g, r, nil, 0), nil
	case "vprocess":
		return walk.NewVProcess(g, r, 0), nil
	case "rwc2":
		return walk.NewChoice(g, r, 2, 0), nil
	case "rwc3":
		return walk.NewChoice(g, r, 3, 0), nil
	case "rotor":
		return walk.NewRotor(g, r, 0), nil
	case "biased":
		return walk.NewBiased(g, r, 0.5, 0), nil
	default:
		return nil, fmt.Errorf("unknown process %q", name)
	}
}
