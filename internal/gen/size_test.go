package gen

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// Every family whose n or m follows from its arguments rejects an
// oversize request with a wrapped graph.ErrTooLarge before it builds
// anything: the call makes a few small allocations (the error's, more
// under the race detector), never the gigabytes of an edge list. Each
// case is past one bound (n > MaxSize or m > MaxEdges) with the other
// in range where the family allows it.
func TestFamiliesRejectOversizeArguments(t *testing.T) {
	r := newRand(1)
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"Cycle n", func() (*graph.Graph, error) { return Cycle(3_000_000_000) }},
		{"DoubleCycle m", func() (*graph.Graph, error) { return DoubleCycle(600_000_000) }},
		{"Complete m", func() (*graph.Graph, error) { return Complete(50_000) }},
		{"CompleteBipartite m", func() (*graph.Graph, error) { return CompleteBipartite(40_000, 40_000) }},
		{"CompleteBipartite n", func() (*graph.Graph, error) { return CompleteBipartite(graph.MaxSize, 1) }},
		{"Torus n", func() (*graph.Graph, error) { return Torus(50_000, 50_000) }},
		{"Torus m", func() (*graph.Graph, error) { return Torus(30_000, 20_000) }},
		{"Circulant m", func() (*graph.Graph, error) { return Circulant(600_000_000, []int{1, 2}) }},
		{"Lollipop m", func() (*graph.Graph, error) { return Lollipop(50_000, 1) }},
		{"Lollipop n", func() (*graph.Graph, error) { return Lollipop(3, graph.MaxSize) }},
		{"Margulis n", func() (*graph.Graph, error) { return Margulis(50_000) }},
		{"Paley m", func() (*graph.Graph, error) { return Paley(65_537) }},
		{"RandomGeometric n", func() (*graph.Graph, error) { return RandomGeometric(r, 3_000_000_000, 0.1) }},
	}
	for _, tc := range cases {
		if g, err := tc.build(); !errors.Is(err, graph.ErrTooLarge) {
			t.Errorf("%s: got (%v, %v), want a wrapped graph.ErrTooLarge", tc.name, g, err)
			continue
		}
		if allocs := testing.AllocsPerRun(3, func() { tc.build() }); allocs > 16 {
			t.Errorf("%s: rejecting made %.0f allocations", tc.name, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.build()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
			t.Errorf("%s: rejecting allocated %d bytes", tc.name, got)
		}
	}
}
