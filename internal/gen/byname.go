package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// FamilyNames lists the families ByName builds, as the command-line
// tools' -graph flag spells them.
const FamilyNames = "regular | hypercube | torus | cycle | circulant | rgg | margulis"

// ByName builds the family the command-line tools' -graph flag names,
// sized by their -n, -degree and -dim flags; the random families draw
// from r. With k = ⌊√n⌋:
//
//   - regular: a random degree-regular graph on n vertices, or n+1
//     when n·degree is odd (RandomRegularSW);
//   - hypercube: the dim-dimensional hypercube;
//   - torus: the k×k torus, k at least 3;
//   - cycle: the n-cycle;
//   - circulant: the circulant on n vertices with offsets 1 and k;
//   - rgg: a connected random geometric graph on n vertices;
//   - margulis: the Margulis expander on Z_k × Z_k.
func ByName(name string, n, degree, dim int, r *rand.Rand) (*graph.Graph, error) {
	k := int(math.Sqrt(float64(n)))
	switch name {
	case "regular":
		if n*degree%2 != 0 {
			n++
		}
		return RandomRegularSW(r, n, degree)
	case "hypercube":
		return Hypercube(dim)
	case "torus":
		side := max(k, 3)
		return Torus(side, side)
	case "cycle":
		return Cycle(n)
	case "circulant":
		return Circulant(n, []int{1, k})
	case "rgg":
		return RandomGeometricConnected(r, n, 0)
	case "margulis":
		return Margulis(k)
	default:
		return nil, fmt.Errorf("unknown graph kind %q (want %s)", name, FamilyNames)
	}
}
