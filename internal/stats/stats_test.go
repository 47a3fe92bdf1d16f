package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	if math.Abs(s.Var-32.0/7) > 1e-12 {
		t.Errorf("var = %v, want %v", s.Var, 32.0/7)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.StdErr-s.StdDev/math.Sqrt(8)) > 1e-12 {
		t.Error("stderr inconsistent with stddev")
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if _, err := Summarize(nil); err != ErrNoData {
		t.Error("empty sample should fail")
	}
	s, err := Summarize([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 3.5 || s.Var != 0 || s.StdErr != 0 {
		t.Error("single sample should have zero spread")
	}
}

func TestFitLinearExact(t *testing.T) {
	ns := []float64{100, 200, 400, 800}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 3.5 * n
	}
	f, err := FitLinear(ns, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.A-3.5) > 1e-9 || f.R2 < 0.999999 {
		t.Errorf("fit = %+v, want c=3.5 R²≈1", f)
	}
	if f.Eval(1000) != f.A*1000 {
		t.Error("Eval inconsistent")
	}
}

func TestFitNLogNExact(t *testing.T) {
	ns := []float64{100, 200, 400, 800}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 0.93 * n * math.Log(n)
	}
	f, err := FitNLogN(ns, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.A-0.93) > 1e-9 {
		t.Errorf("c = %v, want 0.93 (the paper's d=3 constant)", f.A)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{2, 3}); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := FitLinear([]float64{2}, []float64{2}); err == nil {
		t.Error("single point should fail")
	}
	if _, err := FitNLogN([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("n=1 should fail (ln 1 = 0 pathologies)")
	}
}

func TestClassifyGrowthLinear(t *testing.T) {
	ns := []float64{1000, 2000, 4000, 8000, 16000, 32000}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 4.2*n + 50*math.Sin(float64(i)) // small noise
	}
	g, err := ClassifyGrowth(ns, ys)
	if err != nil {
		t.Fatal(err)
	}
	if g.Verdict != "linear" {
		t.Errorf("verdict = %q for linear data (slope ratio %v)", g.Verdict, g.SlopeRatio)
	}
}

func TestClassifyGrowthNLogN(t *testing.T) {
	ns := []float64{1000, 2000, 4000, 8000, 16000, 32000}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 0.9 * n * math.Log(n)
	}
	g, err := ClassifyGrowth(ns, ys)
	if err != nil {
		t.Fatal(err)
	}
	if g.Verdict != "nlogn" {
		t.Errorf("verdict = %q for n·ln n data (slope ratio %v)", g.Verdict, g.SlopeRatio)
	}
}

func TestClassifyGrowthPropertyNoisy(t *testing.T) {
	// With moderate multiplicative noise the verdict should still be
	// right for clearly separated growth laws.
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ns := []float64{500, 1000, 2000, 4000, 8000, 16000, 32000, 64000}
		lin := make([]float64, len(ns))
		nln := make([]float64, len(ns))
		for i, n := range ns {
			noise := 1 + 0.05*(r.Float64()-0.5)
			lin[i] = 3 * n * noise
			nln[i] = 0.5 * n * math.Log(n) * noise
		}
		gl, err := ClassifyGrowth(ns, lin)
		if err != nil {
			return false
		}
		gn, err := ClassifyGrowth(ns, nln)
		if err != nil {
			return false
		}
		return gl.Verdict == "linear" && gn.Verdict == "nlogn"
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFitString(t *testing.T) {
	f := Fit{Model: "c*n", A: 2, R2: 1}
	if f.String() == "" {
		t.Error("empty string")
	}
	f2 := Fit{Model: "c*n*ln(n)", A: 0.9, R2: 0.99}
	if f2.String() == "" {
		t.Error("empty string")
	}
}

func TestFitCoefficientStandardError(t *testing.T) {
	// Exact data: zero standard error. Noisy data: positive, and the
	// true coefficient lies within a few SEs.
	ns := []float64{100, 200, 400, 800, 1600}
	exact := make([]float64, len(ns))
	for i, n := range ns {
		exact[i] = 2 * n
	}
	f, err := FitLinear(ns, exact)
	if err != nil {
		t.Fatal(err)
	}
	if f.ASE > 1e-12 {
		t.Errorf("exact fit ASE = %v, want 0", f.ASE)
	}
	r := rand.New(rand.NewSource(4))
	noisy := make([]float64, len(ns))
	for i, n := range ns {
		noisy[i] = 2*n*(1+0.02*(r.Float64()-0.5)) + 1
	}
	fn, err := FitLinear(ns, noisy)
	if err != nil {
		t.Fatal(err)
	}
	if fn.ASE <= 0 {
		t.Fatal("noisy fit should have positive ASE")
	}
	if math.Abs(fn.A-2) > 5*fn.ASE+0.05 {
		t.Errorf("true coefficient 2 outside A=%v ± 5·%v", fn.A, fn.ASE)
	}
}
