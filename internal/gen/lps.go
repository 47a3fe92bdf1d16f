package gen

import (
	"fmt"

	"repro/internal/graph"
)

// LPS returns the Lubotzky–Phillips–Sarnak Ramanujan graph X^{p,q} —
// the construction the paper cites ([11]) for high-girth expanders.
//
// p and q must be distinct primes ≡ 1 (mod 4). The graph is the Cayley
// graph of PSL(2, Z_q) (when p is a quadratic residue mod q; n =
// q(q²−1)/2, non-bipartite) or PGL(2, Z_q) (otherwise; n = q(q²−1),
// bipartite) with respect to the p+1 generators arising from the
// integer solutions of a² + b² + c² + d² = p with a > 0 odd and b, c, d
// even. It is (p+1)-regular — even degree whenever p is odd, exactly
// the paper's regime — with second adjacency eigenvalue ≤ 2√p
// (Ramanujan) and girth ≥ 2·log_p q.
//
// The group is materialised by breadth-first closure from the identity
// under the generators, so no group-theoretic machinery is needed. The
// construction requires q > 2√p so that the Cayley graph is simple;
// smaller parameters are rejected.
func LPS(p, q int) (*graph.Graph, error) {
	if p == q {
		return nil, fmt.Errorf("gen: LPS needs distinct primes, got p = q = %d", p)
	}
	for _, v := range []int{p, q} {
		if !isPrime(v) || v%4 != 1 {
			return nil, fmt.Errorf("gen: LPS needs primes ≡ 1 (mod 4), got %d", v)
		}
	}
	if q*q <= 4*p {
		return nil, fmt.Errorf("gen: LPS needs q > 2√p for a simple graph (p=%d, q=%d)", p, q)
	}

	sols := quaternionSolutions(p)
	if len(sols) != p+1 {
		return nil, fmt.Errorf("gen: found %d quaternion solutions for p=%d, want %d", len(sols), p, p+1)
	}
	iq, ok := sqrtMinusOne(q)
	if !ok {
		return nil, fmt.Errorf("gen: no sqrt(-1) mod %d", q)
	}

	// Generator matrices over Z_q: [[a+ib, c+id], [−c+id, a−ib]].
	gens := make([]mat2, 0, p+1)
	for _, s := range sols {
		a, b, c, d := s[0], s[1], s[2], s[3]
		m := mat2{
			mod(a+iq*b, q), mod(c+iq*d, q),
			mod(-c+iq*d, q), mod(a-iq*b, q),
		}
		gens = append(gens, m)
	}

	// BFS closure from the identity in the projective group.
	id := canonical(mat2{1, 0, 0, 1}, q)
	index := map[mat2]int{id: 0}
	order := []mat2{id}
	for head := 0; head < len(order); head++ {
		cur := order[head]
		for _, g := range gens {
			next := canonical(mulMod(cur, g, q), q)
			if _, seen := index[next]; !seen {
				index[next] = len(order)
				order = append(order, next)
			}
		}
	}

	edges := make([]graph.Edge, 0, len(order)*(p+1)/2)
	for u, m := range order {
		for _, g := range gens {
			if w := index[canonical(mulMod(m, g, q), q)]; u < w {
				edges = append(edges, graph.Edge{U: u, V: w})
			}
		}
	}
	gr, err := graph.NewFromEdges(len(order), edges)
	if err != nil {
		return nil, err
	}
	if deg, ok := gr.IsRegular(); !ok || deg != p+1 {
		return nil, fmt.Errorf("gen: LPS(%d,%d) construction gave degree %d, want %d (parameters too small?)", p, q, deg, p+1)
	}
	return gr, nil
}

// mat2 is a 2×2 matrix over Z_q in row-major order.
type mat2 [4]int

func mod(x, q int) int {
	x %= q
	if x < 0 {
		x += q
	}
	return x
}

func mulMod(a, b mat2, q int) mat2 {
	return mat2{
		mod(a[0]*b[0]+a[1]*b[2], q), mod(a[0]*b[1]+a[1]*b[3], q),
		mod(a[2]*b[0]+a[3]*b[2], q), mod(a[2]*b[1]+a[3]*b[3], q),
	}
}

// canonical scales a nonzero matrix by the inverse of its first nonzero
// entry, giving a unique representative of its projective class. Since
// −1 is also a scalar, this identifies m and −m (and all other scalar
// multiples), which is exactly P(GL/SL).
func canonical(m mat2, q int) mat2 {
	lead := 0
	for lead < 4 && m[lead] == 0 {
		lead++
	}
	if lead == 4 {
		return m // zero matrix cannot arise from invertible inputs
	}
	inv := modInverse(m[lead], q)
	for i := range m {
		m[i] = mod(m[i]*inv, q)
	}
	return m
}

// modInverse returns x^{-1} mod q for prime q via Fermat.
func modInverse(x, q int) int {
	return powMod(x, q-2, q)
}

func powMod(base, exp, q int) int {
	result := 1
	base = mod(base, q)
	for exp > 0 {
		if exp&1 == 1 {
			result = result * base % q
		}
		base = base * base % q
		exp >>= 1
	}
	return result
}

// sqrtMinusOne returns i with i² ≡ −1 (mod q), which exists for primes
// q ≡ 1 (mod 4).
func sqrtMinusOne(q int) (int, bool) {
	for x := 2; x < q; x++ {
		if x*x%q == q-1 {
			return x, true
		}
	}
	return 0, false
}

// quaternionSolutions enumerates the integer solutions of
// a²+b²+c²+d² = p with a > 0 odd and b, c, d even. Jacobi's theorem
// gives exactly p+1 of them for a prime p ≡ 1 (mod 4).
func quaternionSolutions(p int) [][4]int {
	var out [][4]int
	bound := 1
	for bound*bound <= p {
		bound++
	}
	for a := 1; a*a <= p; a += 2 {
		for b := -bound; b <= bound; b++ {
			if b%2 != 0 {
				continue
			}
			for c := -bound; c <= bound; c++ {
				if c%2 != 0 {
					continue
				}
				rem := p - a*a - b*b - c*c
				if rem < 0 {
					continue
				}
				d := intSqrt(rem)
				if d*d != rem || d%2 != 0 {
					continue
				}
				out = append(out, [4]int{a, b, c, d})
				if d != 0 {
					out = append(out, [4]int{a, b, c, -d})
				}
			}
		}
	}
	return out
}

func intSqrt(x int) int {
	if x < 0 {
		return -1
	}
	r := 0
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}

// LegendreSymbol returns 1 if a is a nonzero quadratic residue mod the
// odd prime q, −1 if a nonresidue, 0 if a ≡ 0.
func LegendreSymbol(a, q int) int {
	a = mod(a, q)
	if a == 0 {
		return 0
	}
	if powMod(a, (q-1)/2, q) == 1 {
		return 1
	}
	return -1
}

// LPSExpectedOrder returns the vertex count LPS(p, q) should have:
// q(q²−1)/2 when p is a residue mod q (PSL), q(q²−1) otherwise (PGL).
func LPSExpectedOrder(p, q int) int {
	order := q * (q*q - 1)
	if LegendreSymbol(p, q) == 1 {
		return order / 2
	}
	return order
}
