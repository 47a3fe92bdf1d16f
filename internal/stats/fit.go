package stats

import (
	"errors"
	"fmt"
	"math"
)

// Fit is a least-squares fit of a one-parameter growth model to points
// (n_i, y_i).
type Fit struct {
	Model string  // "c*n" or "c*n*ln(n)"
	A     float64 // the coefficient c
	B     float64 // always 0; kept so encoded results keep their bytes
	R2    float64 // coefficient of determination
	RMSE  float64 // root mean squared residual
	// ASE is the standard error of A (0 when not computed), so
	// Figure-1-style constants can be quoted with uncertainty:
	// c = A ± ASE.
	ASE float64
}

// Eval returns the fitted model value at n.
func (f Fit) Eval(n float64) float64 {
	if f.Model == "c*n" {
		return f.A * n
	}
	return f.A * n * math.Log(n)
}

func (f Fit) String() string {
	if f.Model == "c*n" {
		return fmt.Sprintf("%.4g·n (R²=%.4f)", f.A, f.R2)
	}
	return fmt.Sprintf("%.4g·n·ln n (R²=%.4f)", f.A, f.R2)
}

func checkXY(ns, ys []float64, min int) error {
	if len(ns) != len(ys) {
		return errors.New("stats: mismatched point slices")
	}
	if len(ns) < min {
		return fmt.Errorf("stats: need at least %d points, got %d", min, len(ns))
	}
	for _, n := range ns {
		if n <= 1 {
			return errors.New("stats: model fits need n > 1")
		}
	}
	return nil
}

// FitLinear fits y ≈ c·n through the origin.
func FitLinear(ns, ys []float64) (Fit, error) {
	if err := checkXY(ns, ys, 2); err != nil {
		return Fit{}, err
	}
	return fitSingle(ns, ys, "c*n", func(n float64) float64 { return n })
}

// FitNLogN fits y ≈ c·n·ln n through the origin. The paper overlays
// exactly this curve ("[c·n·ln(n)]") on the odd-degree Figure 1 series.
func FitNLogN(ns, ys []float64) (Fit, error) {
	if err := checkXY(ns, ys, 2); err != nil {
		return Fit{}, err
	}
	return fitSingle(ns, ys, "c*n*ln(n)", func(n float64) float64 { return n * math.Log(n) })
}

func fitSingle(ns, ys []float64, model string, basis func(float64) float64) (Fit, error) {
	num, den := 0.0, 0.0
	for i := range ns {
		x := basis(ns[i])
		num += x * ys[i]
		den += x * x
	}
	if den == 0 {
		return Fit{}, errors.New("stats: degenerate basis")
	}
	f := Fit{Model: model, A: num / den}
	f.R2, f.RMSE = goodness(ns, ys, f.Eval)
	// Standard error of the through-origin coefficient:
	// se(c)² = (Σr²/(N−1)) / Σx².
	if len(ns) > 1 {
		ssRes := 0.0
		for i := range ns {
			r := ys[i] - f.Eval(ns[i])
			ssRes += r * r
		}
		f.ASE = math.Sqrt(ssRes / float64(len(ns)-1) / den)
	}
	return f, nil
}

func goodness(ns, ys []float64, eval func(float64) float64) (r2, rmse float64) {
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	ssRes, ssTot := 0.0, 0.0
	for i := range ns {
		d := ys[i] - eval(ns[i])
		ssRes += d * d
		dm := ys[i] - mean
		ssTot += dm * dm
	}
	rmse = math.Sqrt(ssRes / float64(len(ns)))
	if ssTot == 0 {
		if ssRes == 0 {
			return 1, rmse
		}
		return 0, rmse
	}
	return 1 - ssRes/ssTot, rmse
}

// Growth classifies a cover-time curve, mirroring the paper's Figure 1
// reading: fit both c·n and c·n·ln n and report which explains the data
// better, with the normalised-curve slope as a tie-breaker.
type Growth struct {
	Verdict string // "linear" or "nlogn"
	Linear  Fit
	NLogN   Fit
	// SlopeRatio is (last − first) / first of the normalised series
	// y/n: near 0 for linear growth, markedly positive for n·log n.
	SlopeRatio float64
}

// ClassifyGrowth decides between Θ(n) and Θ(n log n) growth for the
// measured points. ns must be increasing.
func ClassifyGrowth(ns, ys []float64) (Growth, error) {
	if err := checkXY(ns, ys, 3); err != nil {
		return Growth{}, err
	}
	lin, err := FitLinear(ns, ys)
	if err != nil {
		return Growth{}, err
	}
	nln, err := FitNLogN(ns, ys)
	if err != nil {
		return Growth{}, err
	}
	g := Growth{Linear: lin, NLogN: nln}
	first := ys[0] / ns[0]
	last := ys[len(ys)-1] / ns[len(ns)-1]
	if first > 0 {
		g.SlopeRatio = (last - first) / first
	}
	// Primary criterion: residuals. Secondary: a normalised series
	// that grows by more than the ln-ratio's half is not flat.
	lnGrowth := math.Log(ns[len(ns)-1]) / math.Log(ns[0])
	switch {
	case nln.RMSE < lin.RMSE && g.SlopeRatio > 0.25*(lnGrowth-1):
		g.Verdict = "nlogn"
	case lin.RMSE <= nln.RMSE:
		g.Verdict = "linear"
	default:
		// Residuals prefer n·ln n but the normalised curve is flat;
		// call it linear (the constant in c·n·ln n is absorbing a
		// constant factor).
		g.Verdict = "linear"
	}
	return g, nil
}
