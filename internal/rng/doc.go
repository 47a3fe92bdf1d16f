// Package rng provides deterministic pseudo-random number generators used
// by every stochastic component of the repository.
//
// The paper's experiments (Berenbrink, Cooper, Friedetzky; Section 5) were
// run with Python's built-in RNG, which is the 32-bit Mersenne Twister
// MT19937. To keep the reproduction faithful, this package implements
// MT19937 from the reference specification, together with two modern
// generators (SplitMix64 and xoshiro256**) that are cheaper and have
// better statistical behaviour for large sweeps.
//
// All generators satisfy math/rand.Source64, so they can be wrapped in a
// *rand.Rand; they also satisfy Source, which adds a fast bounded-int
// path (Lemire's nearly-divisionless method, see lemire.go) that the
// walk hot loops consume directly, skipping math/rand's interface
// dispatch and modulo-rejection divisions. Rand couples both views over
// one shared state. Every experiment in the repository receives its
// randomness through injection so that runs are reproducible from a
// seed. New expands a master seed through SplitMix64 before seeding the
// generator, and NewSource seeds one directly from a seed the caller
// derived, which is how the simulation harness gives each parallel
// trial its own generator without correlation between trials.
package rng
