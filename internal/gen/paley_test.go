package gen

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/spectral"
)

func TestPaleyBasics(t *testing.T) {
	// q = 13: 6-regular (even degree), connected, self-complementary.
	g, err := Paley(13)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := g.IsRegular(); !ok || d != 6 {
		t.Errorf("Paley(13) degree = %d, want 6", d)
	}
	if !g.IsEvenDegree() {
		t.Error("Paley(13) should be even degree")
	}
	if !g.IsConnected() || !g.IsSimple() {
		t.Error("Paley(13) should be simple connected")
	}
	if g.M() != 13*6/2 {
		t.Errorf("m = %d", g.M())
	}
}

func TestPaleySpectrum(t *testing.T) {
	// λ2(adj) of Paley(q) is (−1+√q)/2 ⇒ λ2(P) = (−1+√q)/(q−1).
	for _, q := range []int{13, 17, 29} {
		g, err := Paley(q)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := spectral.Lambda2(g, spectral.Options{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		want := (-1 + math.Sqrt(float64(q))) / float64(q-1)
		if math.Abs(l2-want) > 1e-6 {
			t.Errorf("Paley(%d): λ2 = %v, want %v", q, l2, want)
		}
	}
}

func TestPaleyErrors(t *testing.T) {
	if _, err := Paley(4); err == nil {
		t.Error("composite q should fail")
	}
	if _, err := Paley(7); err == nil {
		t.Error("q ≡ 3 (mod 4) should fail")
	}
	if _, err := Paley(2); err == nil {
		t.Error("tiny q should fail")
	}
	if _, err := Paley(15); err == nil {
		t.Error("q=15 composite should fail")
	}
}

func TestBipartiteDoubleBasics(t *testing.T) {
	g, err := Complete(5) // K5: 4-regular, non-bipartite
	if err != nil {
		t.Fatal(err)
	}
	d, err := BipartiteDouble(g)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 10 || d.M() != 2*g.M() {
		t.Fatalf("double cover size: n=%d m=%d", d.N(), d.M())
	}
	if !d.IsBipartite() {
		t.Error("double cover must be bipartite")
	}
	if deg, ok := d.IsRegular(); !ok || deg != 4 {
		t.Errorf("double cover degree = %d, want 4", deg)
	}
	if !d.IsConnected() {
		t.Error("double cover of a non-bipartite connected graph is connected")
	}
}

func TestBipartiteDoubleSpectrumNegation(t *testing.T) {
	// λn(double) = −λ... specifically the double cover's spectrum is
	// ±spectrum(g); with λ2(K5 walk) = −1/4 the double cover has
	// λ2 = 1/4 (negation of λn(g)) and λn = −1 (negation of principal).
	g, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BipartiteDouble(g)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := spectral.ComputeGap(d, spectral.Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gap.LambdaN-(-1)) > 1e-6 {
		t.Errorf("λn = %v, want -1 (bipartite)", gap.LambdaN)
	}
	if math.Abs(gap.Lambda2-0.25) > 1e-6 {
		t.Errorf("λ2 = %v, want 0.25 (−λn of K5)", gap.Lambda2)
	}
}

func TestBipartiteDoubleLoopHandling(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}})
	d, err := BipartiteDouble(g)
	if err != nil {
		t.Fatal(err)
	}
	// Loop at 0 (degree 2) becomes two parallel edges (0,0'): degrees
	// are preserved — each copy of vertex 0 has degree 3.
	if d.Degree(0) != 3 || d.Degree(2) != 3 {
		t.Errorf("degrees of copies = %d, %d; want 3, 3", d.Degree(0), d.Degree(2))
	}
	if d.M() != 2*g.M() {
		t.Errorf("m = %d, want %d", d.M(), 2*g.M())
	}
}
