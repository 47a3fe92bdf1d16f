package graph

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeGraph: a decoder that panics on a malformed edge list, or
// accepts one whose graph fails its own Validate, would let a corrupted
// instance file into an experiment. Mirrors FuzzReadCheckpointManifest:
// the checked-in seed corpus (testdata/fuzz) regression-tests the
// truncation/garbage/bounds cases on every plain `go test` run.
func FuzzDecodeGraph(f *testing.F) {
	var valid bytes.Buffer
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 1}, {0, 1}})
	if err := g.WriteEdgeList(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2]) // truncated mid-edge
	f.Add([]byte(""))
	f.Add([]byte("4"))                   // header missing the edge count
	f.Add([]byte("4 2\n0 1\n"))          // fewer edges than declared
	f.Add([]byte("4 1\n0 9\n"))          // endpoint out of range
	f.Add([]byte("0 0\n"))               // no vertices
	f.Add([]byte("-3 1\n0 0\n"))         // negative vertex count
	f.Add([]byte("4 -1\n"))              // negative edge count
	f.Add([]byte("9999999999 0\n"))      // n past MaxSize
	f.Add([]byte("4 9999999999\n"))      // m past MaxEdges
	f.Add([]byte("4 1\n0 x\n"))          // non-numeric endpoint
	f.Add([]byte("4 1\n0 1 2\n"))        // too many fields
	f.Add([]byte("2 1\n0 1\njunk\n"))    // trailing garbage is ignored by contract
	f.Add([]byte("4 1073741823\n0 1\n")) // m = MaxEdges declared, one edge given
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound the accepted vertex count: a tiny input may legally
		// declare an enormous (all-isolated) graph, and the decoder
		// allocates O(n) — fine for real files, an OOM for the fuzzer.
		if fields := strings.Fields(strings.SplitN(string(data), "\n", 2)[0]); len(fields) == 2 {
			if n, err := strconv.Atoi(fields[0]); err == nil && n > 1<<20 {
				t.Skip("vertex count beyond the fuzz allocation budget")
			}
		}
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails its own validation: %v", err)
		}
		// Accepted graphs must round-trip: re-encode and re-read to an
		// identical vertex set and edge sequence.
		var re bytes.Buffer
		if err := g.WriteEdgeList(&re); err != nil {
			t.Fatalf("accepted graph does not re-encode: %v", err)
		}
		g2, err := ReadEdgeList(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded graph rejected: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed shape: (%d,%d) -> (%d,%d)", g.N(), g.M(), g2.N(), g2.M())
		}
		for id := 0; id < g.M(); id++ {
			if g.Edge(id) != g2.Edge(id) {
				t.Fatalf("round trip changed edge %d: %+v -> %+v", id, g.Edge(id), g2.Edge(id))
			}
		}
	})
}
