package spectral

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

const eigTol = 1e-6

func TestLambda2Cycle(t *testing.T) {
	// C_n has P-eigenvalues cos(2πk/n); λ2 = cos(2π/n).
	for _, n := range []int{4, 5, 8, 12, 30} {
		g, err := gen.Cycle(n)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := Lambda2(g, Options{})
		if err != nil {
			t.Fatalf("C%d: %v", n, err)
		}
		want := math.Cos(2 * math.Pi / float64(n))
		if math.Abs(l2-want) > 1e-5 {
			t.Errorf("C%d: λ2 = %v, want %v", n, l2, want)
		}
	}
}

func TestLambdaNCycle(t *testing.T) {
	// λn of C_n is cos(2π·floor(n/2)/n): -1 for even n.
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := LambdaN(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ln-(-1)) > 1e-5 {
		t.Errorf("C6: λn = %v, want -1", ln)
	}
	g5, err := gen.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	ln5, err := LambdaN(g5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Cos(2 * math.Pi * 2 / 5)
	if math.Abs(ln5-want) > 1e-5 {
		t.Errorf("C5: λn = %v, want %v", ln5, want)
	}
}

func TestLambdaComplete(t *testing.T) {
	// K_n: all non-principal eigenvalues are −1/(n−1).
	for _, n := range []int{4, 7, 10} {
		g, err := gen.Complete(n)
		if err != nil {
			t.Fatal(err)
		}
		want := -1 / float64(n-1)
		l2, err := Lambda2(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(l2-want) > eigTol {
			t.Errorf("K%d: λ2 = %v, want %v", n, l2, want)
		}
		ln, err := LambdaN(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ln-want) > eigTol {
			t.Errorf("K%d: λn = %v, want %v", n, ln, want)
		}
	}
}

func TestLambdaHypercube(t *testing.T) {
	// H_r: P-eigenvalues 1 − 2k/r; λ2 = 1 − 2/r, λn = −1.
	for _, r := range []int{3, 4, 5} {
		g, err := gen.Hypercube(r)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := Lambda2(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - 2/float64(r)
		if math.Abs(l2-want) > 1e-5 {
			t.Errorf("H%d: λ2 = %v, want %v", r, l2, want)
		}
		ln, err := LambdaN(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ln-(-1)) > 1e-5 {
			t.Errorf("H%d: λn = %v, want -1 (bipartite)", r, ln)
		}
	}
}

func TestComputeGapAndLazy(t *testing.T) {
	g, err := gen.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := ComputeGap(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Bipartite: λmax = |λn| = 1, so raw gap ~0.
	if gap.Value > 1e-5 {
		t.Errorf("bipartite gap = %v, want ~0", gap.Value)
	}
	lazy := LazyGap(gap)
	// Lazy eigenvalues: (λ+1)/2 → λ2' = (1−2/4+1)/2 = 0.75, gap 0.25.
	if math.Abs(lazy.Value-0.25) > 1e-5 {
		t.Errorf("lazy gap = %v, want 0.25", lazy.Value)
	}
	if lazy.LambdaN < 0 {
		t.Errorf("lazy λn = %v, must be >= 0", lazy.LambdaN)
	}
}

func TestRandomRegularSpectralGapPositive(t *testing.T) {
	// (P1): random r-regular graphs have λ2(adj) ≤ 2·sqrt(r−1)+ε whp,
	// i.e. λ2(P) ≤ (2·sqrt(r−1)+ε)/r. Check with generous slack.
	r := rand.New(rand.NewSource(17))
	for _, deg := range []int{4, 6} {
		g, err := gen.RandomRegularSW(r, 200, deg)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := Lambda2(g, Options{Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		bound := (2*math.Sqrt(float64(deg-1)) + 0.5) / float64(deg)
		if l2 > bound {
			t.Errorf("r=%d: λ2 = %v exceeds Alon-Friedman-ish bound %v", deg, l2, bound)
		}
		if l2 < 0.1 {
			t.Errorf("r=%d: λ2 = %v suspiciously small", deg, l2)
		}
	}
}

func TestMultigraphOperator(t *testing.T) {
	// Double cycle: same transition matrix as the single cycle (each
	// neighbour reached with probability 1/2), so identical spectrum.
	dc, err := gen.DoubleCycle(8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	l2dc, err := Lambda2(dc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l2c, err := Lambda2(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2dc-l2c) > 1e-6 {
		t.Errorf("double cycle λ2 = %v, cycle λ2 = %v; should match", l2dc, l2c)
	}
}

func TestLoopsActAsLaziness(t *testing.T) {
	// Adding d(v) loops at every vertex of C4 halves transition
	// probabilities to neighbours: λ = (λ0+1)/2 mapping. C4 has λ2 = 0,
	// so looped C4 has λ2 = 0.5.
	g, err := gen.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	for v := 0; v < g.N(); v++ {
		edges = append(edges, graph.Edge{U: v, V: v})
	}
	lazy := graph.MustFromEdges(g.N(), edges)
	l2, err := Lambda2(lazy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2-0.5) > 1e-6 {
		t.Errorf("looped C4 λ2 = %v, want 0.5", l2)
	}
	ln, err := LambdaN(lazy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ln-0) > 1e-6 {
		t.Errorf("looped C4 λn = %v, want 0", ln)
	}
}

func TestSingleVertexWithLoop(t *testing.T) {
	g := graph.MustFromEdges(1, []graph.Edge{{U: 0, V: 0}})
	l2, err := Lambda2(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l2 != 1 {
		t.Errorf("single vertex λ2 = %v, want 1 by convention", l2)
	}
}

func TestOperatorIsolatedVertexError(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 0}})
	if _, err := NewOperator(g); err == nil {
		t.Fatal("isolated vertex should be rejected")
	}
}

func TestConductanceExactSmall(t *testing.T) {
	// C4: best cut takes 2 opposite-ish vertices; each 2-subset of
	// adjacent vertices has boundary 2, d(X)=4 → Φ = 1/2. A single
	// vertex: 2/2 = 1. Adjacent pair: 2/4 = 1/2. So Φ(C4) = 1/2.
	g, err := gen.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := Conductance(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phi-0.5) > 1e-12 {
		t.Errorf("Φ(C4) = %v, want 0.5", phi)
	}
	// C8: half the cycle has d(X)=8=m, boundary 2 → Φ = 1/4.
	g8, err := gen.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	phi8, err := Conductance(g8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phi8-0.25) > 1e-12 {
		t.Errorf("Φ(C8) = %v, want 0.25", phi8)
	}
	// K4: every subset is expanding; singleton gives 3/3 = 1; pair
	// gives 4/6 = 2/3. Φ(K4) = 2/3.
	k4, err := gen.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	phiK, err := Conductance(k4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phiK-2.0/3) > 1e-12 {
		t.Errorf("Φ(K4) = %v, want 2/3", phiK)
	}
}

func TestConductanceErrors(t *testing.T) {
	g := graph.MustFromEdges(1, []graph.Edge{{U: 0, V: 0}})
	if _, err := Conductance(g); err == nil {
		t.Error("n=1 should fail")
	}
	big, err := gen.Cycle(30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Conductance(big); err == nil {
		t.Error("n=30 exact enumeration should be refused")
	}
}

func TestSweepUpperBoundsExact(t *testing.T) {
	// The sweep cut is a real cut, so it upper-bounds Φ; on cycles it
	// should find the optimal contiguous cut exactly.
	for _, n := range []int{8, 12, 16} {
		g, err := gen.Cycle(n)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Conductance(g)
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := SweepConductance(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sweep < exact-1e-9 {
			t.Errorf("C%d: sweep %v below exact Φ %v", n, sweep, exact)
		}
		if sweep > exact+1e-9 {
			t.Errorf("C%d: sweep %v did not find the contiguous optimum %v", n, sweep, exact)
		}
	}
}

func TestCheegerRelationHolds(t *testing.T) {
	// 1−2Φ ≤ λ2 ≤ 1−Φ²/2 on assorted small graphs.
	r := rand.New(rand.NewSource(3))
	graphs := make(map[string]*graph.Graph)
	if g, err := gen.Cycle(10); err == nil {
		graphs["C10"] = g
	}
	if g, err := gen.Complete(6); err == nil {
		graphs["K6"] = g
	}
	if g, err := gen.Hypercube(3); err == nil {
		graphs["H3"] = g
	}
	if g, err := gen.RandomRegular(r, 12, 4); err == nil {
		graphs["RR(12,4)"] = g
	}
	for name, g := range graphs {
		phi, err := Conductance(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		l2, err := Lambda2(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lo, hi := CheegerBounds(phi)
		if l2 < lo-1e-9 || l2 > hi+1e-9 {
			t.Errorf("%s: λ2 = %v outside Cheeger interval [%v, %v] (Φ=%v)", name, l2, lo, hi, phi)
		}
	}
}

func TestContractionIncreasesGap(t *testing.T) {
	// Paper (16): 1−λmax(G) ≤ 1−λmax(Γ) after contracting a vertex set.
	r := rand.New(rand.NewSource(9))
	g, err := gen.RandomRegular(r, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := ComputeGap(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gamma, _, _ := g.Contract([]int{0, 1, 2, 3, 4})
	// Contraction can create loops/parallel edges; operator handles both.
	gapGamma, err := ComputeGap(gamma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Compare λ2 gaps (the paper's statement is for the relevant λmax
	// after lazification; use lazy transform on both for safety).
	lg, lgg := LazyGap(gap), LazyGap(gapGamma)
	if lgg.Value < lg.Value-1e-6 {
		t.Errorf("contraction decreased gap: %v -> %v", lg.Value, lgg.Value)
	}
}

func BenchmarkLambda2RandomRegular(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g, err := gen.RandomRegularSW(r, 1000, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lambda2(g, Options{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// ComputeGap runs λ2 and λn on two goroutines over one graph. The
// generator's own CSR (adopted by NewFrozen) and the graph NewFromEdges
// rebuilds from its edge list must give the same gap bit for bit, and
// equal to the serial Lambda2 and LambdaN.
func TestComputeGapUnfrozenMatchesFrozen(t *testing.T) {
	sw, err := gen.RandomRegularSW(rand.New(rand.NewSource(4)), 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustFromEdges(sw.N(), sw.Edges())
	opts := Options{Tol: 1e-8}
	frozen, err := ComputeGap(sw, opts)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := ComputeGap(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != frozen {
		t.Errorf("rebuilt gap %+v != generator gap %+v", rebuilt, frozen)
	}
	l2, err := Lambda2(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := LambdaN(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if frozen.Lambda2 != l2 || frozen.LambdaN != ln {
		t.Errorf("ComputeGap (%v, %v) differs from serial Lambda2/LambdaN (%v, %v)", frozen.Lambda2, frozen.LambdaN, l2, ln)
	}
}

func BenchmarkComputeGap(b *testing.B) {
	g, err := gen.RandomRegularSW(rand.New(rand.NewSource(1)), 1000, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeGap(g, Options{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// refShiftedSecond is the unfused power iteration shiftedSecond
// replaced: Apply, the shift, the deflation, the Rayleigh quotient and
// the normalisation as separate passes. The fused loop must reproduce
// its result bit for bit.
func refShiftedSecond(g *graph.Graph, opts Options, top bool) (float64, error) {
	opts = opts.withDefaults()
	op, err := NewOperator(g)
	if err != nil {
		return 0, err
	}
	n := g.N()
	if n == 1 {
		return 1, nil
	}
	v1 := op.principal()
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i + 1))
	}
	y := make([]float64, n)
	deflate := func(vec []float64) {
		if !top {
			return
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
		for i := range x {
			x[i] = math.Cos(float64(7*i + 2))
		}
		deflate(x)
		if normalize(x) == 0 {
			return 0, ErrNoGap
		}
	}
	prev := math.Inf(-1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		op.Apply(y, x)
		if top {
			for i := range y {
				y[i] = (y[i] + x[i]) / 2
			}
		} else {
			for i := range y {
				y[i] = (x[i] - y[i]) / 2
			}
		}
		deflate(y)
		rq := 0.0
		for i := range y {
			rq += x[i] * y[i]
		}
		if normalize(y) == 0 {
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
	}
	if top {
		return 2*prev - 1, ErrNoGap
	}
	return 1 - 2*prev, ErrNoGap
}

// Lambda2 and LambdaN must equal the unfused reference bit for bit,
// including the estimate returned with ErrNoGap when the budget runs
// out, on regular, irregular and multigraph inputs.
func TestFusedIterationMatchesReferenceBits(t *testing.T) {
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	graphs := map[string]*graph.Graph{
		"circulant(64;1,5)":    must(gen.Circulant(64, []int{1, 5})),
		"circulant(101;1,2,7)": must(gen.Circulant(101, []int{1, 2, 7})),
		"lps(5,13)":            must(gen.LPS(5, 13)),
		"sw(500,4)":            must(gen.RandomRegularSW(rand.New(rand.NewSource(11)), 500, 4)),
		"sw(300,6)":            must(gen.RandomRegularSW(rand.New(rand.NewSource(12)), 300, 6)),
		"degseq":               must(gen.RandomDegreeSequenceSW(rand.New(rand.NewSource(13)), degSeq(240, 4, 6, 8))),
		"lollipop(8,12)":       must(gen.Lollipop(8, 12)),
		"hypercube(5)":         must(gen.Hypercube(5)),
		"multigraph+loops": graph.MustFromEdges(5, []graph.Edge{
			{U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 2}, {U: 2, V: 3},
			{U: 3, V: 4}, {U: 4, V: 0}, {U: 3, V: 3}, {U: 1, V: 4},
		}),
	}
	for name, g := range graphs {
		for _, opts := range []Options{{Tol: 1e-8}, {Tol: 1e-9}, {}, {MaxIter: 7}} {
			for _, top := range []bool{true, false} {
				lambda := LambdaN
				if top {
					lambda = Lambda2
				}
				got, gotErr := lambda(g, opts)
				want, wantErr := refShiftedSecond(g, opts, top)
				if math.Float64bits(got) != math.Float64bits(want) || gotErr != wantErr {
					t.Errorf("%s %+v top=%v: fused (%v, %v), reference (%v, %v)", name, opts, top, got, gotErr, want, wantErr)
				}
			}
		}
	}
}

// degSeq cycles through degs to give n vertices a degree each.
func degSeq(n int, degs ...int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = degs[i%len(degs)]
	}
	return out
}

// BenchmarkLambda2 times one λ2 call, at the tolerance the sweep's
// Finish analysis uses, on the LPS(5,13) expander.
func BenchmarkLambda2(b *testing.B) {
	g, err := gen.LPS(5, 13)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lambda2(g, Options{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}
