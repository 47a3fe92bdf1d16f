package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveIdentity(t *testing.T) {
	a := NewMatrix(3)
	for i := 0; i < 3; i++ {
		a.Set(i, i, 1)
	}
	b := []float64{4, 5, 6}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-12 {
			t.Errorf("x[%d] = %v", i, x[i])
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	a := NewMatrix(2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the initial diagonal forces a row swap.
	a := NewMatrix(2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSingularDetected(t *testing.T) {
	a := NewMatrix(2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Solve(a, []float64{1, 2}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestRhsLengthMismatch(t *testing.T) {
	a := NewMatrix(2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestFactorDoesNotMutate(t *testing.T) {
	a := NewMatrix(2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 3)
	a.Set(1, 0, 6)
	a.Set(1, 1, 3)
	orig := append([]float64(nil), a.Data...)
	if _, err := Factor(a); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if a.Data[i] != orig[i] {
			t.Fatal("Factor mutated its input")
		}
	}
}

func TestReuseFactorisation(t *testing.T) {
	a := NewMatrix(2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 5)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := f.Solve([]float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	x2, err := f.Solve([]float64{4, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x1[0]-1) > 1e-12 || math.Abs(x2[0]-2) > 1e-12 {
		t.Error("reused factorisation gave wrong answers")
	}
}

func TestPropertySolveThenMultiply(t *testing.T) {
	// For random well-conditioned (diagonally dominant) matrices,
	// A·Solve(A,b) ≈ b.
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(20) + 2
		a := NewMatrix(n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := r.Float64()*2 - 1
					a.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			a.Set(i, i, rowSum+1+r.Float64()) // strict dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64()*10 - 5
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range b {
			back := 0.0
			for j := 0; j < n; j++ {
				back += a.At(i, j) * x[j]
			}
			if math.Abs(back-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}
