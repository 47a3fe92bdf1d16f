// Package linalg provides the small dense linear-algebra kernel used by
// the exact (non-Monte-Carlo) walk computations: LU factorisation with
// partial pivoting and a solver. Hitting times, return times and exact
// cover times reduce to dense systems of a few hundred unknowns, well
// within dense LU territory; no sparse machinery is warranted.
package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when factorisation meets a pivot that is
// (numerically) zero.
var ErrSingular = errors.New("linalg: matrix is singular")

// Matrix is a dense row-major n×n matrix.
type Matrix struct {
	N    int
	Data []float64 // len N*N, row-major
}

// NewMatrix returns a zero n×n matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	copy(c.Data, m.Data)
	return c
}

// LU holds an LU factorisation PA = LU with row pivoting.
type LU struct {
	lu   *Matrix
	perm []int
}

// Factor computes the LU factorisation of a (a is not modified).
func Factor(a *Matrix) (*LU, error) {
	n := a.N
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in the column at or below
		// the diagonal.
		pivot := col
		best := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-14 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				lu.Data[col*n+j], lu.Data[pivot*n+j] = lu.Data[pivot*n+j], lu.Data[col*n+j]
			}
			perm[col], perm[pivot] = perm[pivot], perm[col]
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu.Data[r*n+j] -= f * lu.Data[col*n+j]
			}
		}
	}
	return &LU{lu: lu, perm: perm}, nil
}

// Solve returns x with Ax = b for the factored A.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.N
	if len(b) != n {
		return nil, errors.New("linalg: rhs length mismatch")
	}
	x := make([]float64, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		sum := x[i]
		for j := 0; j < i; j++ {
			sum -= f.lu.At(i, j) * x[j]
		}
		x[i] = sum
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= f.lu.At(i, j) * x[j]
		}
		x[i] = sum / f.lu.At(i, i)
	}
	return x, nil
}

// Solve factors a and solves a single system.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
