package sim

import (
	"math/rand"
	"runtime"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/walk"
)

// GraphFactory builds a graph instance for one trial from the trial's
// private generator. It receives the plain math/rand view so generator
// determinism is independent of the walk layer's fast RNG path.
type GraphFactory func(r *rand.Rand) (*graph.Graph, error)

// ProcessFactory builds the process under test on g, starting at start,
// using the trial's private generator. The *rng.Rand exposes both the
// fast bounded-int path (which the walk constructors consume as their
// Intner) and, via its embedded *rand.Rand, full math/rand interop for
// processes that need other distributions.
type ProcessFactory func(g *graph.Graph, r *rng.Rand, start int) walk.Process

// Config controls a sweep.
type Config struct {
	// Seed is the master seed; every derived quantity is a pure
	// function of it (see the seed-derivation contract in sweep.go).
	Seed uint64
	// Trials is the number of independent trials per point (default 5,
	// the paper's per-point count).
	Trials int
	// Workers bounds (point, trial) parallelism (default GOMAXPROCS).
	Workers int
	// MaxSteps caps each trial's walk (default: driver default).
	MaxSteps int64
	// Kind selects the RNG family (default xoshiro256**; use
	// rng.KindMT19937 to mirror the paper's Python experiments).
	Kind rng.Kind
}

func (c Config) withDefaults() Config {
	if c.Trials == 0 {
		c.Trials = 5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Kind == 0 {
		c.Kind = rng.KindXoshiro
	}
	return c
}

// Measurement is one trial's outcome. The JSON encoding is the unit
// payload of checkpoint journals and shard merges; Go's float64
// round-trips exactly through it, so restored measurements are
// bit-identical to the originals.
type Measurement struct {
	Vertex float64 `json:"vertex"` // vertex cover time in steps
	Edge   float64 `json:"edge"`   // edge cover time in steps
	// Extra carries arm-specific side outputs beyond the two cover
	// channels (e.g. the phase decomposition's per-trial statistics).
	// It travels with the (point, trial) unit through checkpoint
	// restores and shard merges, which closure-captured side arrays
	// cannot — see ArmFunc.
	Extra []float64 `json:"extra,omitempty"`
}

// Equal reports bit-for-bit equality of two measurements, Extra
// included. (Measurement is not ==-comparable since Extra is a slice.)
func (m Measurement) Equal(o Measurement) bool {
	return m.Vertex == o.Vertex && m.Edge == o.Edge && slices.Equal(m.Extra, o.Extra)
}

// ArmResult aggregates one arm's trial batch. (The registry-level
// outcome of a whole experiment is Result in registry.go.)
type ArmResult struct {
	Measurements []Measurement
	VertexStats  stats.Summary
	EdgeStats    stats.Summary
}
