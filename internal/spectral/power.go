package spectral

import (
	"errors"
	"math"

	"repro/internal/graph"
)

// ErrNoGap is returned when power iteration fails to converge, which in
// practice means the relevant eigenvalue is degenerate or the iteration
// budget was too small for the requested tolerance.
var ErrNoGap = errors.New("spectral: power iteration did not converge")

// Options controls the eigenvalue iteration.
type Options struct {
	// MaxIter bounds the number of power-iteration steps (default 50000).
	MaxIter int
	// Tol is the convergence threshold on successive Rayleigh quotients
	// (default 1e-10).
	Tol float64
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 50000
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	return o
}

// Operator applies the symmetrised random-walk operator
// N = D^{1/2} P D^{-1/2} of a graph implicitly.
type Operator struct {
	g        *graph.Graph
	invSqrtD []float64
}

// NewOperator builds the implicit operator for g. Every vertex must
// have positive degree (isolated vertices have no walk semantics).
func NewOperator(g *graph.Graph) (*Operator, error) {
	inv := make([]float64, g.N())
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		if d == 0 {
			return nil, errors.New("spectral: isolated vertex has no transition probabilities")
		}
		inv[v] = 1 / math.Sqrt(float64(d))
	}
	return &Operator{g: g, invSqrtD: inv}, nil
}

// Apply computes dst = N·src. dst and src must have length g.N() and
// must not alias. It only reads g, so concurrent Applies on one graph
// are safe.
func (op *Operator) Apply(dst, src []float64) {
	for u := range dst {
		sum := 0.0
		for _, h := range op.g.Adj(u) {
			sum += src[h.To] * op.invSqrtD[h.To]
		}
		dst[u] = sum * op.invSqrtD[u]
	}
}

// principal returns the known unit principal eigenvector of N,
// v1(u) = sqrt(d(u)) / sqrt(2m).
func (op *Operator) principal() []float64 {
	v := make([]float64, op.g.N())
	norm := 0.0
	for u := range v {
		v[u] = 1 / op.invSqrtD[u] // sqrt(d(u))
		norm += v[u] * v[u]
	}
	norm = math.Sqrt(norm)
	for u := range v {
		v[u] /= norm
	}
	return v
}

// Lambda2 returns the second-largest eigenvalue λ2 of the transition
// matrix P of a simple random walk on g.
//
// It power-iterates the positive-shifted operator (N+I)/2, whose
// spectrum is (λ+1)/2 ∈ [0,1], after deflating the principal
// eigenvector; the limit Rayleigh quotient is (λ2+1)/2.
func Lambda2(g *graph.Graph, opts Options) (float64, error) {
	return shiftedSecond(g, opts, true)
}

// LambdaN returns the smallest eigenvalue λn of the transition matrix.
//
// It power-iterates (I−N)/2, whose spectrum is (1−λ)/2 ∈ [0,1] with the
// principal eigenvalue of N mapped to 0, so no deflation is needed; the
// limit Rayleigh quotient is (1−λn)/2.
func LambdaN(g *graph.Graph, opts Options) (float64, error) {
	return shiftedSecond(g, opts, false)
}

// shiftedSecond runs deflated power iteration on (N+I)/2 (top=true, for
// λ2) or (I−N)/2 (top=false, for λn).
func shiftedSecond(g *graph.Graph, opts Options, top bool) (float64, error) {
	opts = opts.withDefaults()
	op, err := NewOperator(g)
	if err != nil {
		return 0, err
	}
	n := g.N()
	if n == 1 {
		// A single vertex with loops: P = [1], there is no second
		// eigenvalue; report λ2 = λn = 1 by convention.
		return 1, nil
	}
	v1 := op.principal()
	// Deterministic start vector orthogonal-ish to v1 with support
	// everywhere; the deflation below removes any v1 component anyway.
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i + 1)) // arbitrary, reproducible
	}
	y := make([]float64, n)
	deflate := func(vec []float64) {
		if !top {
			return // principal maps to eigenvalue 0 under (I−N)/2
		}
		dot := 0.0
		for i := range vec {
			dot += vec[i] * v1[i]
		}
		for i := range vec {
			vec[i] -= dot * v1[i]
		}
	}
	normalize := func(vec []float64) float64 {
		norm := 0.0
		for _, v := range vec {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		for i := range vec {
			vec[i] /= norm
		}
		return norm
	}
	deflate(x)
	if normalize(x) == 0 {
		// Start vector happened to be exactly the principal direction;
		// perturb deterministically.
		for i := range x {
			x[i] = math.Cos(float64(7*i + 2))
		}
		deflate(x)
		if normalize(x) == 0 {
			return 0, ErrNoGap
		}
	}
	// nbr[start[u]:start[u+1]] lists u's neighbours in Adj order: a flat
	// copy made once, so the loop below never reads the graph.
	start := make([]int32, n+1)
	nbr := make([]int32, 0, 2*g.M())
	for u := 0; u < n; u++ {
		for _, h := range g.Adj(u) {
			nbr = append(nbr, int32(h.To))
		}
		start[u+1] = int32(len(nbr))
	}
	// Each iteration is Apply, the shift, the deflation, the Rayleigh
	// quotient and the normalisation, fused into three passes that
	// perform the same floating-point operations in the same order, so
	// the result is bit-identical to running them one at a time. z is
	// x·D^{-1/2}: each entry is the product Apply rounds once per
	// neighbour (on targets where Go does not fuse that product into
	// the sum, such as amd64).
	inv := op.invSqrtD
	z := make([]float64, n)
	for i := range z {
		z[i] = x[i] * inv[i]
	}
	prev := math.Inf(-1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		dot := shiftedProduct(y, x, z, inv, v1, start, nbr, top)
		// Deflate y, then take the Rayleigh quotient of the shifted
		// operator at unit x, x·y, and y's squared norm.
		rq, sq := 0.0, 0.0
		for i := range y {
			if top {
				y[i] -= dot * v1[i]
			}
			rq += x[i] * y[i]
			sq += y[i] * y[i]
		}
		norm := math.Sqrt(sq)
		if norm == 0 {
			// The deflated space is annihilated: the remaining spectrum
			// of the shifted operator is 0.
			rq = 0
			if top {
				return 2*rq - 1, nil
			}
			return 1 - 2*rq, nil
		}
		x, y = y, x
		if math.Abs(rq-prev) < opts.Tol && iter > 10 {
			if top {
				return 2*rq - 1, nil
			}
			return 1 - 2*rq, nil
		}
		prev = rq
		// Normalise the new x and form the next z in one pass.
		for i := range x {
			x[i] /= norm
			z[i] = x[i] * inv[i]
		}
	}
	// Return the best estimate with an error so callers can decide.
	if top {
		return 2*prev - 1, ErrNoGap
	}
	return 1 - 2*prev, ErrNoGap
}

// shiftedProduct sets y = (N+I)x / 2 when top, else (I−N)x / 2, from
// z = x·D^{-1/2} and the neighbour lists nbr[start[u]:start[u+1]], and
// for top returns the deflation's dot product y·v1, accumulated in
// index order. The float64 conversion keeps (N·x)[u] rounded on its
// own, as Apply stores it, where a compiler could otherwise fuse it
// into the shift.
func shiftedProduct(y, x, z, inv, v1 []float64, start, nbr []int32, top bool) float64 {
	n := len(y)
	// Reslicing to n lets the compiler drop the per-u bounds checks.
	x, inv, v1, start = x[:n], inv[:n], v1[:n], start[:n+1]
	dot := 0.0
	if top {
		for u := range y {
			sum := 0.0
			for _, w := range nbr[start[u]:start[u+1]] {
				sum += z[w]
			}
			y[u] = (float64(sum*inv[u]) + x[u]) / 2
			dot += y[u] * v1[u]
		}
		return dot
	}
	for u := range y {
		sum := 0.0
		for _, w := range nbr[start[u]:start[u+1]] {
			sum += z[w]
		}
		y[u] = (x[u] - float64(sum*inv[u])) / 2
	}
	return dot
}

// Gap holds the spectral summary of a graph's simple random walk.
type Gap struct {
	Lambda2   float64 // second-largest eigenvalue of P
	LambdaN   float64 // smallest eigenvalue of P
	LambdaMax float64 // max(λ2, |λn|)
	Value     float64 // 1 − λmax, the paper's eigenvalue gap
}

// ComputeGap returns the full spectral summary for g. It computes λ2
// and λn concurrently, on one extra goroutine that it joins before
// returning; each is the same computation as Lambda2 and LambdaN.
// Both iterations only read g, which is immutable. A caller that needs only the lazy gap should call Lambda2
// instead: LazyGap reads nothing else, so the λn iteration would be
// wasted.
func ComputeGap(g *graph.Graph, opts Options) (Gap, error) {
	var ln float64
	var lnErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		ln, lnErr = LambdaN(g, opts)
	}()
	l2, err := Lambda2(g, opts)
	<-done
	if err != nil {
		return Gap{}, err
	}
	if lnErr != nil {
		return Gap{}, lnErr
	}
	lm := math.Max(l2, math.Abs(ln))
	return Gap{Lambda2: l2, LambdaN: ln, LambdaMax: lm, Value: 1 - lm}, nil
}

// LazyGap converts a spectral summary to that of the lazy walk
// P' = (P+I)/2: eigenvalues map to (λ+1)/2, so λn' ≥ 0 and
// λmax' = (λ2+1)/2. The paper invokes this transform whenever
// λmax ≠ λ2 (e.g. bipartite graphs), at the cost of at most doubling
// the cover time. Its LambdaMax and Value read only g.Lambda2, so the
// lazy gap is 1 − (Lambda2(G)+1)/2 without computing λn at all.
func LazyGap(g Gap) Gap {
	l2 := (g.Lambda2 + 1) / 2
	ln := (g.LambdaN + 1) / 2
	return Gap{Lambda2: l2, LambdaN: ln, LambdaMax: l2, Value: 1 - l2}
}
