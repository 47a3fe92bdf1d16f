package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// censusDigest is the SHA-256 of a census in output order, one line of
// vertices and edge IDs per cycle.
func censusDigest(cycles []Cycle) string {
	h := sha256.New()
	for _, c := range cycles {
		fmt.Fprintf(h, "%v %v\n", c.Vertices, c.Edges)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Census output, order included, is pinned byte for byte on three
// graphs: Petersen, a multigraph with loops and a triple edge, and a
// random 4-regular graph. The digests were recorded from the census
// that returned a fresh distance map per root.
func TestCensusGoldenDigests(t *testing.T) {
	petersen := graph.MustFromEdges(10, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
		{U: 5, V: 7}, {U: 7, V: 9}, {U: 9, V: 6}, {U: 6, V: 8}, {U: 8, V: 5},
		{U: 0, V: 5}, {U: 1, V: 6}, {U: 2, V: 7}, {U: 3, V: 8}, {U: 4, V: 9},
	})
	multi := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 2, V: 3}, {U: 3, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
		{U: 4, V: 5}, {U: 5, V: 3}, {U: 5, V: 5}, {U: 1, V: 4},
	})
	regular, err := gen.RandomRegularSW(newRand(7), 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		horizon int
		want    string
	}{
		{"petersen", petersen, 9, "ecdf2ea3b503411dee06e3d6322baee4724b04a0ad30293dc125ebec7740afb5"},
		{"multigraph", multi, 9, "2a30f8a438d2e536523277dd1445c9235d66055ed7bc4320bd7b3e8c102a630a"},
		{"random 4-regular n=400", regular, 9, "80aa9e0026dd60af572988c83c4f54c4d7c2bba8ecce4b85366408aa2ca9603f"},
	}
	for _, c := range cases {
		cycles, err := Census(c.g, c.horizon, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := censusDigest(cycles); got != c.want {
			t.Errorf("%s: census digest %s (%d cycles), want %s", c.name, got, len(cycles), c.want)
		}
	}
}
