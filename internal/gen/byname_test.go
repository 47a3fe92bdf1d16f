package gen

import (
	"strings"
	"testing"
)

// Every family FamilyNames lists builds a connected graph through
// ByName, an odd n·degree bumps a regular graph to n+1 vertices, and an
// unknown name is an error.
func TestByName(t *testing.T) {
	sizes := map[string]int{"regular": 50, "hypercube": 0, "torus": 25, "cycle": 12, "circulant": 36, "rgg": 60, "margulis": 16}
	r := newRand(1)
	for _, name := range strings.Split(FamilyNames, " | ") {
		n, ok := sizes[name]
		if !ok {
			t.Fatalf("family %q has no test size", name)
		}
		g, err := ByName(name, n, 4, 5, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.N() == 0 || !g.IsConnected() {
			t.Errorf("%s: %d vertices, connected %v", name, g.N(), g.IsConnected())
		}
	}
	if g, err := ByName("regular", 51, 3, 0, r); err != nil || g.N() != 52 || g.MaxDegree() != 3 {
		t.Errorf("regular n=51 d=3: %v, want a 3-regular graph on 52 vertices", err)
	}
	if _, err := ByName("nope", 10, 3, 3, r); err == nil {
		t.Error("unknown family should fail")
	}
}
