package walk

import (
	"math/rand"

	"repro/internal/bits"
	"repro/internal/graph"
)

// Biased interpolates between the simple random walk and the E-process:
// when the current vertex has unvisited incident edges, it follows one
// (uniformly) with probability bias and takes a plain SRW step with
// probability 1−bias; with no unvisited incident edges it always walks
// randomly. bias = 0 is the SRW (with redundant bookkeeping); bias = 1
// is exactly the uniform-rule E-process.
//
// This realises the "how much unvisited preference is needed?" ablation
// (the registry's "bias" experiment): the paper's proofs use full
// preference; the bias sweep shows the cover time degrading
// continuously toward the SRW's Θ(n log n) as bias decreases.
type Biased struct {
	g       *graph.Graph
	r       *rand.Rand
	halves  []graph.Half // graph CSR adjacency
	off     []int32
	bias    float64
	visited bits.Set // by edge ID
	pend    edgeArena
	cur     int
}

var _ Process = (*Biased)(nil)

// NewBiased returns a biased unvisited-edge walk. bias is clamped to
// [0,1]. It takes a *rand.Rand (not an Intner) because the bias coin is
// a Float64 draw.
func NewBiased(g *graph.Graph, r *rand.Rand, bias float64, start int) *Biased {
	if bias < 0 {
		bias = 0
	}
	if bias > 1 {
		bias = 1
	}
	b := &Biased{g: g, r: r, halves: g.Halves(), off: g.Offsets(), bias: bias}
	b.Reset(start)
	return b
}

// Graph implements Process.
func (b *Biased) Graph() *graph.Graph { return b.g }

// Current implements Process.
func (b *Biased) Current() int { return b.cur }

// Bias returns the preference strength.
func (b *Biased) Bias() float64 { return b.bias }

// Step implements Process.
func (b *Biased) Step() (int, int) {
	v := b.cur
	b.pend.prune(v, &b.visited)
	p := b.pend.pending(v)
	var h graph.Half
	if len(p) > 0 && (b.bias >= 1 || b.r.Float64() < b.bias) {
		h = p[b.r.Intn(len(p))]
	} else {
		adj := b.halves[b.off[v]:b.off[v+1]]
		h = adj[b.r.Intn(len(adj))]
	}
	b.visited.Set(int(h.ID))
	b.cur = int(h.To)
	return int(h.ID), b.cur
}

// Reset implements Process. It reuses the pending arena and visited
// bitset (no allocation after the first Reset).
func (b *Biased) Reset(start int) {
	b.cur = start
	b.visited.Reset(b.g.M())
	b.pend.reset(b.g)
}
