package graph

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	// The loop {2,2} and the parallel edge {0,1} survive the round trip.
	g := MustFromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 2}, {0, 1}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip changed size: (%d,%d) -> (%d,%d)", g.N(), g.M(), back.N(), back.M())
	}
	for i, e := range g.Edges() {
		if back.Edge(i) != e {
			t.Errorf("edge %d: %v != %v", i, back.Edge(i), e)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad header":     "x y\n",
		"missing edges":  "3 2\n0 1\n",
		"bad endpoint":   "3 1\n0 q\n",
		"range endpoint": "3 1\n0 5\n",
		"zero vertices":  "0 0\n",
		"short line":     "2 1\n0\n",
	}
	for name, input := range cases {
		if _, err := ReadEdgeList(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// An out-of-range endpoint is reported as such even when a garbage
	// line follows it: each line is checked as it is parsed.
	_, err := ReadEdgeList(strings.NewReader("3 2\n0 5\njunk\n"))
	if !errors.Is(err, ErrVertexRange) {
		t.Errorf("range endpoint before a garbage line: err = %v, want ErrVertexRange", err)
	}
	// A header may declare MaxEdges edges: the decoder must not size
	// anything from it, so a short input fails after allocating little.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadEdgeList(strings.NewReader("4 1073741823\n0 1\n")); err == nil {
		t.Fatal("a header declaring MaxEdges with one edge line was accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("decoding a 2-line input declaring MaxEdges allocated %d bytes", got)
	}
}

func TestDOTOutput(t *testing.T) {
	g := MustFromEdges(2, []Edge{{0, 1}})
	dot := g.DOT("g")
	for _, want := range []string{"graph g {", "0 -- 1;", "}"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q in:\n%s", want, dot)
		}
	}
}

func TestStringSummary(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1}})
	if got := g.String(); got != "Graph(n=3, m=1)" {
		t.Errorf("String() = %q", got)
	}
}
