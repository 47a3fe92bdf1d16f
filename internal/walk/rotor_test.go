package walk

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// A nil *rand.Rand passed through the Intner interface must keep
// meaning "deterministic rotors", not panic on a typed-nil dereference.
func TestRotorTypedNilRand(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	var r *rand.Rand
	ro := NewRotor(g, r, 0) // must not panic
	e, v := ro.Step()
	if e != 0 || v != 1 {
		t.Errorf("deterministic rotor first step = (%d,%d), want (0,1) (adjacency position 0)", e, v)
	}
	ro2 := NewRotor(g, nil, 0)
	e2, v2 := ro2.Step()
	if e != e2 || v != v2 {
		t.Errorf("typed-nil and untyped-nil rotors diverge: (%d,%d) vs (%d,%d)", e, v, e2, v2)
	}
}

// A rotor walk on an isolated vertex must fail loudly (as the pre-CSR
// slice indexing did), not silently read a neighbouring CSR block.
func TestRotorIsolatedVertexPanics(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 1, V: 2}})
	ro := NewRotor(g, nil, 0)
	defer func() {
		if recover() == nil {
			t.Error("Step on isolated vertex did not panic")
		}
	}()
	ro.Step()
}
