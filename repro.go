// Package repro is the public API of the reproduction of Berenbrink,
// Cooper and Friedetzky, "Random walks which prefer unvisited edges:
// exploring high girth even degree expanders in linear time" (PODC
// 2012 / Random Structures & Algorithms 46(1)).
//
// The package re-exports the library's stable surface from the internal
// implementation packages:
//
//   - graphs and generators (multigraphs with loops, random regular
//     graphs, hypercubes, tori, circulants, geometric graphs);
//   - walk processes (the E-process with pluggable unvisited-edge
//     rules, simple/lazy/weighted random walks, greedy random walk,
//     random walk with choice, rotor-router, locally fair walks) and
//     cover-time drivers;
//   - the paper's analysis machinery (ℓ-goodness, blue components,
//     cycle census, theorem bounds, verified invariant runs);
//   - spectral quantities (λ2, λmax, eigenvalue gap, conductance);
//   - the experiment registry that regenerates Figure 1 and every
//     quantitative claim: Experiments enumerates the registered
//     experiments (the generated index is EXPERIMENTS.md; `go run
//     ./cmd/sweep -list` prints the authoritative live list) and
//     RunExperiment runs one by name under a context, with prompt
//     cancellation and per-unit progress reporting. Long runs are
//     durable: a Checkpoint journals completed (point, trial) units so
//     an interrupted run resumes byte-identically, Experiment.RunShard
//     splits one experiment's unit space across machines, and
//     MergeShards stitches the shard journals back into the canonical
//     result. `go run ./cmd/sweepd` turns the same journals into a
//     fault-tolerant fleet: a coordinator leases unit blocks to workers
//     over HTTP, rides out worker deaths and its own restarts, and
//     merges a result byte-identical to a single-process run. `go run
//     ./cmd/reprod` serves the registry as a resident HTTP/JSON daemon
//     with an exact result cache keyed by RunKey (a cache hit is
//     byte-identical to a recomputation), single-flight dedup of
//     concurrent identical requests, and admission control.
//
// Quick start:
//
//	src := repro.NewSource(repro.KindXoshiro, 1)
//	r := rand.New(src)
//	g, err := repro.RandomRegular(r, 10000, 4)   // even-degree expander
//	if err != nil { ... }
//	p := repro.NewEProcess(g, r, repro.Uniform{}, 0)
//	steps, err := repro.VertexCoverSteps(p, 0)
//	fmt.Printf("covered %d vertices in %d steps\n", g.N(), steps)
//
// Running a registered experiment:
//
//	res, err := repro.RunExperiment(ctx, "thm1", repro.ExpConfig{Seed: 2012})
//	if err != nil { ... }
//	res.Table.WriteText(os.Stdout)    // or res.WriteJSON(w)
package repro

// Regenerate the experiment table in EXPERIMENTS.md from the registry.
//go:generate go run ./cmd/genexperiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectral"
	"repro/internal/trace"
	"repro/internal/walk"
)

// Experiment harness: the registry of the paper's experimental record.
type (
	// Experiment is one registered experiment (name, description, seed
	// namespace, plan).
	Experiment = sim.Experiment
	// ExpConfig parameterises an experiment run (master seed, trials,
	// scale, workers).
	ExpConfig = sim.ExpConfig
	// ExperimentResult is an experiment's uniform outcome: typed rows,
	// rendered table, notes, and a stable JSON encoding.
	ExperimentResult = sim.Result
	// ExperimentTable is the rendered table of an experiment.
	ExperimentTable = sim.Table
	// RunOptions carries the per-unit Progress callback and the
	// optional Checkpoint journal.
	RunOptions = sim.RunOptions
	// Checkpoint configures the durable-run journal: completed
	// (point, trial) units are written atomically as they finish, and
	// Resume restores them so an interrupted run picks up where it died
	// with byte-identical results. Checkpoints are workers-independent.
	Checkpoint = sim.Checkpoint
	// Shard selects one contiguous block of an experiment's
	// (point, trial) unit space for Experiment.RunShard, so a single
	// experiment can span machines; MergeShards stitches the shards'
	// journals back into the canonical result.
	Shard = sim.Shard
	// RunKey is the canonical identity of an experiment run: exactly
	// the fields results are a pure function of (name, salt, seed,
	// trials, scale, RNG kind, step budget, points shape) — and nothing
	// else: Workers is deliberately absent. It keys both checkpoint
	// manifests and `cmd/reprod`'s exact result cache, so "same key"
	// means "byte-identical result".
	RunKey = sim.RunKey
)

var (
	// Experiments returns all 23 registered experiments in canonical
	// order: the 19 claim experiments, Figure 1 (20th), then the
	// scalecover, pcfcover and churncover probes.
	Experiments = sim.Registry
	// LookupExperiment finds a registered experiment by name.
	LookupExperiment = sim.Lookup
	// RunExperiment runs the named experiment under ctx; cancellation
	// is prompt and leak-free, and the result is a pure function of
	// the config's master seed. For checkpointed or sharded runs, use
	// LookupExperiment plus Experiment.Run / Experiment.RunShard with a
	// Checkpoint in RunOptions.
	RunExperiment = sim.RunExperiment
	// MergeShards stitches the journals of point-sharded runs
	// (Experiment.RunShard) into the canonical unsharded result,
	// byte-identical to a plain run at the same configuration.
	MergeShards = sim.MergeShards
	// ShardCoverage reports how many (point, trial) units of one shard
	// block are journaled in a directory, validating the journal first —
	// the recovery scan and completion check of distributed runs
	// (cmd/sweepd).
	ShardCoverage = sim.ShardCoverage
	// DecodeRunKey strictly parses an encoded RunKey (the canonical
	// RunKey.Encode form persisted in spill-file headers and logs):
	// unknown fields, trailing bytes and implausible shapes are all
	// errors, so a key read back from disk is validated before it is
	// trusted as a cache identity.
	DecodeRunKey = sim.DecodeRunKey
)

// Graph types.
type (
	// Graph is an undirected multigraph with loops, immutable once
	// built; see NewGraphFromEdges.
	Graph = graph.Graph
	// Edge is an undirected edge; a loop has U == V.
	Edge = graph.Edge
	// Half is a half-edge (edge occurrence at a vertex).
	Half = graph.Half
)

// Graph constructors.
var (
	// NewGraphFromEdges builds a graph from an edge list.
	NewGraphFromEdges = graph.NewFromEdges
	// ReadEdgeList parses the "n m\nu v\n..." format.
	ReadEdgeList = graph.ReadEdgeList
)

// Generators (see internal/gen for parameter documentation).
var (
	// RandomRegular samples a uniform simple connected r-regular graph
	// by the pairing model with rejection.
	RandomRegular = gen.RandomRegular
	// RandomRegularSW samples by Steger–Wormald incremental pairing —
	// the generator family behind the paper's own experiments.
	RandomRegularSW = gen.RandomRegularSW
	// RandomDegreeSequence samples a simple connected graph with a
	// fixed degree sequence (exact-uniform rejection; slow for spread
	// sequences).
	RandomDegreeSequence = gen.RandomDegreeSequence
	// RandomDegreeSequenceSW is the scalable incremental-pairing
	// variant.
	RandomDegreeSequenceSW = gen.RandomDegreeSequenceSW
	// Hypercube returns H_r on 2^r vertices.
	Hypercube = gen.Hypercube
	// Torus returns the rows×cols toroidal grid.
	Torus = gen.Torus
	// Cycle returns C_n.
	Cycle = gen.Cycle
	// DoubleCycle returns C_n with every edge doubled (4-regular).
	DoubleCycle = gen.DoubleCycle
	// Complete returns K_n.
	Complete = gen.Complete
	// CompleteBipartite returns K_{a,b}.
	CompleteBipartite = gen.CompleteBipartite
	// Circulant returns the circulant graph C_n(offsets).
	Circulant = gen.Circulant
	// Lollipop returns the clique-plus-path lollipop graph.
	Lollipop = gen.Lollipop
	// Margulis returns the 8-regular Margulis expander on k² vertices.
	Margulis = gen.Margulis
	// Paley returns the Paley graph on a prime q ≡ 1 (mod 4).
	Paley = gen.Paley
	// LPS returns the Lubotzky–Phillips–Sarnak Ramanujan graph X^{p,q}
	// (the paper's citation [11] for high-girth expanders).
	LPS = gen.LPS
	// LPSExpectedOrder predicts |V(X^{p,q})|.
	LPSExpectedOrder = gen.LPSExpectedOrder
	// BipartiteDouble returns the bipartite double cover of a graph.
	BipartiteDouble = gen.BipartiteDouble
	// RandomGeometric returns a random geometric graph on the unit
	// square.
	RandomGeometric = gen.RandomGeometric
	// RandomGeometricConnected retries until connected.
	RandomGeometricConnected = gen.RandomGeometricConnected
)

// Walk processes and rules.
type (
	// Process is a stepwise walk; see VertexCoverSteps and friends.
	Process = walk.Process
	// EProcess is the paper's unvisited-edge-preferring walk.
	EProcess = walk.EProcess
	// Rule is the paper's rule A for choosing among unvisited edges.
	Rule = walk.Rule
	// Uniform chooses unvisited edges uniformly (greedy random walk).
	Uniform = walk.Uniform
	// LowestEdgeFirst is a deterministic rule A.
	LowestEdgeFirst = walk.LowestEdgeFirst
	// HighestEdgeFirst is a deterministic rule A.
	HighestEdgeFirst = walk.HighestEdgeFirst
	// RoundRobin is a rotor-like per-vertex deterministic rule A.
	RoundRobin = walk.RoundRobin
	// TowardVisited is an adversarial on-line rule A.
	TowardVisited = walk.TowardVisited
	// TowardUnvisited greedily chases fresh territory.
	TowardUnvisited = walk.TowardUnvisited
	// Phase is the E-process step colour (blue/red).
	Phase = walk.Phase
	// WalkStats aggregates E-process phase statistics.
	WalkStats = walk.Stats
	// CoverTimes reports vertex and edge cover steps of one trajectory.
	CoverTimes = walk.CoverTimes
)

// Phase values.
const (
	PhaseBlue = walk.PhaseBlue
	PhaseRed  = walk.PhaseRed
)

// Process constructors and drivers.
var (
	// NewEProcess returns the paper's E-process (nil rule = Uniform).
	NewEProcess = walk.NewEProcess
	// NewGreedyRandomWalk is the Orenshtein–Shinkar greedy random walk:
	// exactly the E-process with the uniform rule.
	NewGreedyRandomWalk = func(g *Graph, r *rand.Rand, start int) *EProcess {
		return walk.NewEProcess(g, r, walk.Uniform{}, start)
	}
	// NewVProcess returns the unvisited-vertex-preferring walk (the
	// ablation the paper's introduction contrasts with the E-process).
	NewVProcess = walk.NewVProcess
	// NewBiased interpolates between SRW (bias 0) and the E-process
	// (bias 1).
	NewBiased = walk.NewBiased
	// NewSimple returns a simple random walk.
	NewSimple = walk.NewSimple
	// NewLazy returns a lazy simple random walk.
	NewLazy = walk.NewLazy
	// NewWeighted returns a reversible weighted random walk.
	NewWeighted = walk.NewWeighted
	// NewChoice returns Avin–Krishnamachari's RWC(d).
	NewChoice = walk.NewChoice
	// NewRotor returns a rotor-router (Propp machine).
	NewRotor = walk.NewRotor
	// NewLeastUsedFirst returns the locally fair least-used-first walk.
	NewLeastUsedFirst = walk.NewLeastUsedFirst
	// NewOldestFirst returns the locally fair oldest-first walk.
	NewOldestFirst = walk.NewOldestFirst

	// VertexCoverSteps runs a process until all vertices are visited.
	VertexCoverSteps = walk.VertexCoverSteps
	// EdgeCoverSteps runs a process until all edges are traversed.
	EdgeCoverSteps = walk.EdgeCoverSteps
	// CoverBoth measures vertex and edge cover on one trajectory.
	CoverBoth = walk.Cover
	// HitSteps runs a process until it reaches a target vertex.
	HitSteps = walk.HitSteps
	// BlanketTime estimates the Ding–Lee–Peres blanket time.
	BlanketTime = walk.BlanketTime
	// VisitAllAtLeast runs an SRW until every vertex has k visits.
	VisitAllAtLeast = walk.VisitAllAtLeast
	// EstimateHittingTime Monte-Carlo-estimates E_u(H_v).
	EstimateHittingTime = walk.EstimateHittingTime
	// EstimateCommuteTime Monte-Carlo-estimates K(u,v).
	EstimateCommuteTime = walk.EstimateCommuteTime
	// EstimateReturnTime Monte-Carlo-estimates E_u(T_u^+) = 1/π_u.
	EstimateReturnTime = walk.EstimateReturnTime
)

// Analysis types and functions (the paper's machinery).
type (
	// LGoodResult is an ℓ-goodness value with exactness flag.
	LGoodResult = core.LGoodResult
	// BlueComponent is one unvisited-edge component.
	BlueComponent = core.BlueComponent
	// BlueAnalysis is a blue-structure snapshot of an E-process.
	BlueAnalysis = core.Analysis
	// CycleRecord is a simple cycle found by the census.
	CycleRecord = core.Cycle
	// StarStats is the Section 5 isolated-star census outcome.
	StarStats = core.StarStats
)

var (
	// LGoodGraph computes ℓ(G) exactly up to a horizon.
	LGoodGraph = core.LGoodGraph
	// LGoodVertex computes ℓ(v) exactly up to a horizon.
	LGoodVertex = core.LGoodVertex
	// CycleCensus enumerates short simple cycles.
	CycleCensus = core.Census
	// P2Holds checks the paper's (P2) sparsity property.
	P2Holds = core.P2Holds
	// AnalyzeBlue decomposes the unvisited edges of an E-process.
	AnalyzeBlue = core.AnalyzeBlue
	// MaximalBlueSubgraph extracts S*_v of Observation 11.
	MaximalBlueSubgraph = core.MaximalBlueSubgraph
	// VerifiedRun drives an E-process checking Observations 10–12.
	VerifiedRun = core.VerifiedRun
	// StarCensusRun measures isolated blue stars (Section 5).
	StarCensusRun = core.StarCensusRun
	// IsolatedStarCenters lists current star centres.
	IsolatedStarCenters = core.IsolatedStarCenters

	// Theorem1Bound evaluates the paper's Theorem 1 shape.
	Theorem1Bound = core.Theorem1Bound
	// Theorem3Bound evaluates the paper's Theorem 3 shape.
	Theorem3Bound = core.Theorem3Bound
	// GreedyWalkBound evaluates eq. (2).
	GreedyWalkBound = core.GreedyWalkBound
	// EdgeCoverSandwich evaluates eq. (3).
	EdgeCoverSandwich = core.EdgeCoverSandwich
	// RadzikLowerBound evaluates Theorem 5: (n/4)·log(n/2).
	RadzikLowerBound = core.RadzikLowerBound
	// FeigeLowerBound evaluates n·ln n.
	FeigeLowerBound = core.FeigeLowerBound
	// MixingTime evaluates Lemma 7's T = 6·log n/(1−λmax).
	MixingTime = core.MixingTime
	// HittingTimeBound evaluates Lemma 6 / Corollary 9.
	HittingTimeBound = core.HittingTimeBound
	// SpeedupRatio divides SRW cover by E-process cover.
	SpeedupRatio = core.SpeedupRatio

	// ExactHittingTimes solves E_u(H_target) exactly for all u.
	ExactHittingTimes = core.ExactHittingTimes
	// ExactReturnTime solves E_u(T_u^+) exactly (= 2m/d(u)).
	ExactReturnTime = core.ExactReturnTime
	// ExactCommuteTime solves K(u,v) exactly.
	ExactCommuteTime = core.ExactCommuteTime
	// ExactStationaryHitting solves E_π(H_v) exactly (Lemma 6's LHS).
	ExactStationaryHitting = core.ExactStationaryHitting
	// ExactCoverTimeSRW solves the SRW expected cover time exactly
	// (n ≤ 14).
	ExactCoverTimeSRW = core.ExactCoverTimeSRW

	// CountRootedSubgraphs enumerates β(s,v) of Lemma 14 exactly.
	CountRootedSubgraphs = core.CountRootedSubgraphs
	// Lemma14Bound evaluates the 2^{sΔ} bound on β(s,v).
	Lemma14Bound = core.Lemma14Bound
	// LeafPathsThroughRoot builds the Q_v path set of Section 3.3.
	LeafPathsThroughRoot = core.LeafPathsThroughRoot
	// UnvisitedSetProbBound evaluates Lemma 13's exponential bound.
	UnvisitedSetProbBound = core.UnvisitedSetProbBound
	// MatthewsLowerBound evaluates the KKLV cover-time lower bound.
	MatthewsLowerBound = core.MatthewsLowerBound
	// CommuteMatrix solves all-pairs commute times exactly.
	CommuteMatrix = core.CommuteMatrix
	// IsTreeLike reports whether a ball around a vertex is acyclic
	// (the Section 5 hypothesis).
	IsTreeLike = core.IsTreeLike
	// TreeLikeFraction measures how much of a graph is locally a tree.
	TreeLikeFraction = core.TreeLikeFraction
)

// Spectral quantities.
type (
	// SpectralGap summarises λ2, λn, λmax and 1−λmax.
	SpectralGap = spectral.Gap
	// SpectralOptions tunes the power iteration.
	SpectralOptions = spectral.Options
)

var (
	// ComputeGap returns the spectral summary of a graph's SRW.
	ComputeGap = spectral.ComputeGap
	// LazyGap transforms a summary to the lazy walk's.
	LazyGap = spectral.LazyGap
	// Lambda2 returns the second eigenvalue of the transition matrix.
	Lambda2 = spectral.Lambda2
	// Conductance returns Φ(G) exactly (small graphs).
	Conductance = spectral.Conductance
	// SweepConductance upper-bounds Φ(G) by a spectral sweep cut.
	SweepConductance = spectral.SweepConductance
	// Stationary returns π_v = d(v)/2m.
	Stationary = spectral.Stationary
	// EvolveDistribution applies ρ·P^t (optionally lazy).
	EvolveDistribution = spectral.EvolveDistribution
	// TVDistance is total variation distance between distributions.
	TVDistance = spectral.TVDistance
	// EmpiricalMixingTime measures the lazy walk's mixing time.
	EmpiricalMixingTime = spectral.EmpiricalMixingTime
)

// Trajectory tracing.
type (
	// TraceRecorder accumulates first-visit and coverage statistics.
	TraceRecorder = trace.Recorder
)

var (
	// NewTraceRecorder wraps a process for coverage recording.
	NewTraceRecorder = trace.NewRecorder
	// TraceRun drives a process for a fixed number of recorded steps.
	TraceRun = trace.Run
	// TraceUntilVertexCover records a full vertex-cover trajectory.
	TraceUntilVertexCover = trace.RunUntilVertexCover
	// TraceUntilEdgeCover records a full edge-cover trajectory.
	TraceUntilEdgeCover = trace.RunUntilEdgeCover
)

// Randomness.
type (
	// SourceKind selects a generator family.
	SourceKind = rng.Kind
)

// Generator kinds.
const (
	// KindXoshiro is xoshiro256** (default; fast).
	KindXoshiro = rng.KindXoshiro
	// KindMT19937 is the Mersenne Twister (the paper's generator).
	KindMT19937 = rng.KindMT19937
	// KindSplitMix is SplitMix64.
	KindSplitMix = rng.KindSplitMix
)

// NewSource returns a seeded rand.Source64 of the given kind.
var NewSource = rng.New
