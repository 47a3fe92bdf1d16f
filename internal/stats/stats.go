// Package stats provides the summary statistics and model fitting used
// to turn raw cover-time measurements into the paper's Figure-1-style
// conclusions: per-point means with error bars, least-squares fits for
// the models c·n and c·n·ln n, and a model-selection verdict that
// classifies a cover-time curve as linear or n·log n growth — the exact
// judgement the paper makes by inspection ("the plots for even degrees
// 4 and 6 are constant... degrees 5 and 7 appear to show logarithmic
// growth").
package stats

import (
	"errors"
	"math"
)

// ErrNoData is returned by statistics that need at least one sample.
var ErrNoData = errors.New("stats: no data")

// Summary holds moments of a sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // unbiased sample variance
	StdDev float64
	StdErr float64 // standard error of the mean
	Min    float64
	Max    float64
}

// Summarize computes the Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoData
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Var = ss / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Var)
		s.StdErr = s.StdDev / math.Sqrt(float64(s.N))
	}
	return s, nil
}
