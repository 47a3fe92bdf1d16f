package bits

import (
	"math/rand"
	"testing"
)

// Word-boundary lengths are the interesting ones: 63 (one partial
// word), 64 (one exactly full word), 65 (a full word plus one bit).
var boundaryLens = []int{0, 1, 7, 63, 64, 65, 127, 128, 129, 1000}

func TestSetClearTest(t *testing.T) {
	for _, n := range boundaryLens {
		var s Set
		s.Reset(n)
		if s.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, s.Len())
		}
		for i := 0; i < n; i++ {
			if s.Test(i) {
				t.Fatalf("n=%d: fresh set has bit %d", n, i)
			}
		}
		// Set every third bit, verify, clear every second, verify.
		for i := 0; i < n; i += 3 {
			s.Set(i)
		}
		for i := 0; i < n; i++ {
			if got, want := s.Test(i), i%3 == 0; got != want {
				t.Fatalf("n=%d: Test(%d) = %v after Set pass", n, i, got)
			}
		}
		for i := 0; i < n; i += 2 {
			s.Clear(i)
		}
		for i := 0; i < n; i++ {
			want := i%3 == 0 && i%2 != 0
			if got := s.Test(i); got != want {
				t.Fatalf("n=%d: Test(%d) = %v after Clear pass", n, i, got)
			}
		}
	}
}

func TestCountTotals(t *testing.T) {
	for _, n := range boundaryLens {
		var s Set
		s.Reset(n)
		if c := s.Count(); c != 0 {
			t.Fatalf("n=%d: empty Count() = %d", n, c)
		}
		for i := 0; i < n; i++ {
			s.Set(i)
			if c := s.Count(); c != i+1 {
				t.Fatalf("n=%d: Count() = %d after setting %d bits", n, c, i+1)
			}
		}
		// Setting a set bit must not change the count.
		if n > 0 {
			s.Set(n - 1)
			if c := s.Count(); c != n {
				t.Fatalf("n=%d: Count() = %d after double-set", n, c)
			}
		}
	}
}

func TestAppendUnsetPartition(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range boundaryLens {
		var s Set
		s.Reset(n)
		want := make(map[int]bool)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				s.Set(i)
				want[i] = true
			}
		}
		unset := s.AppendUnset(nil)
		if len(want)+len(unset) != n {
			t.Fatalf("n=%d: |set| + |unset| = %d + %d != n", n, len(want), len(unset))
		}
		prev := -1
		for _, i := range unset {
			if want[i] || i <= prev || i >= n {
				t.Fatalf("n=%d: AppendUnset produced %v (must exclude indices past Len)", n, unset)
			}
			prev = i
		}
	}
}

// AppendUnset must never report ghost indices in [Len(), 64·words):
// the final partial word's out-of-range bits are clear in storage but
// not part of the set.
func TestAppendUnsetMasksTailWord(t *testing.T) {
	for _, n := range []int{63, 65, 100} {
		var s Set
		s.Reset(n)
		for i := 0; i < n; i++ {
			s.Set(i)
		}
		if out := s.AppendUnset(nil); len(out) != 0 {
			t.Errorf("n=%d: full set has unset indices %v", n, out)
		}
	}
}

func TestResetReusesStorageAndClears(t *testing.T) {
	var s Set
	s.Reset(128)
	for i := 0; i < 128; i++ {
		s.Set(i)
	}
	// Shrinking and re-growing within capacity must yield a cleared set
	// without allocating.
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset(65)
		if s.Count() != 0 {
			t.Fatal("Reset left stale bits")
		}
		s.Set(64)
	})
	if allocs != 0 {
		t.Errorf("Reset within capacity allocates %.1f objects per call, want 0", allocs)
	}
}
