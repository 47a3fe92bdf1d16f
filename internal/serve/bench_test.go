package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchRunURL is the request both serve benchmarks repeat: a scale-1
// eq3 run, one of the experiments the perfbench serve mix requests.
const benchRunURL = "/v1/run?exp=eq3&seed=7&trials=1"

// benchServe primes s with one cold request for benchRunURL, then
// times repeated requests through Handler with no sockets and checks
// every reply came from the want tier.
func benchServe(b *testing.B, s *Server, want string) {
	h := s.Handler()
	serveOnce := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, benchRunURL, nil))
		return w
	}
	if w := serveOnce(); w.Code != http.StatusOK {
		b.Fatalf("priming request: status %d: %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	for b.Loop() {
		if w := serveOnce(); w.Code != http.StatusOK || w.Header().Get("X-Reprod-Cache") != want {
			b.Fatalf("status %d cache %q, want 200 %s", w.Code, w.Header().Get("X-Reprod-Cache"), want)
		}
	}
}

// BenchmarkServeMemoryHit times the memory-LRU hit path: request
// parsing and validation, the cache lookup and the response write.
func BenchmarkServeMemoryHit(b *testing.B) {
	benchServe(b, New(Options{}), "hit")
}

// BenchmarkServeDiskHit times the disk-tier hit path with the memory
// cache disabled, so every request reads, validates and serves the
// spill file.
func BenchmarkServeDiskHit(b *testing.B) {
	benchServe(b, New(Options{CacheDir: b.TempDir(), CacheEntries: -1}), "disk")
}
