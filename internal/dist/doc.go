// Package dist is the fault-tolerant distributed sweep layer: a
// stateless, restartable HTTP/JSON coordinator plus a worker client
// that turn the durable-run layer of internal/sim into a fleet that
// drains a large sweep unattended.
//
// # Model
//
// The coordinator enumerates the selected registry experiments'
// canonical (point, trial) unit spaces and splits each into contiguous
// PlanShard blocks of roughly Options.BlockUnits units. Blocks are
// handed to workers as leases with a deadline; a worker renews its
// lease by heartbeating, journals its block with Experiment.RunShard
// into a per-block checkpoint directory under the shared work root, and
// reports completion. The coordinator verifies completion against the
// journal on disk (sim.ShardCoverage), reassigns blocks whose lease
// expires or whose worker reports failure, and — once every block is
// done — stitches the journals into the canonical per-experiment
// Results with sim.MergeShards.
//
// # Why duplicate execution is safe
//
// Every measurement is a pure function of (master seed, point salt,
// trial), so a unit recomputed by any worker journals the same record.
// Every RunShard that runs units of a block appends to a segment of
// its own (created O_EXCL under a random name; the shared manifest is
// written atomically and identically by whichever worker starts the
// journal), so two workers racing on a reassigned block — the original
// holder was slow, not dead — never write the same file. Readers take
// the union of the segments: a record repeated across segments must
// equal the first (unitRecordsEqual), and a segment another worker is
// still appending to can only end in a torn line, which is skipped
// until it is complete. sim.MergeShards verifies overlapping records
// agree in the same way before stitching. The merged tables and Result
// JSON are therefore byte-identical to an uninterrupted single-process
// run, whatever the failure schedule.
//
// # Durability
//
// The checkpoint journals are the only durable state. The coordinator
// keeps its lease table in memory only: on restart it re-enumerates the
// blocks and recovers completion by validating each block's journal
// coverage, so killing and restarting the coordinator loses nothing but
// in-flight lease assignments (workers' requests fail transiently and
// are retried with jittered exponential backoff until the coordinator
// returns). A corrupt or mismatched journal fails recovery loudly,
// exactly as resume validation would.
//
// # Liveness and clocks
//
// Lease expiry is measured exclusively on the coordinator's clock;
// workers never compare clocks — they are just told the lease TTL and
// heartbeat at TTL/3. A worker that loses its lease (expired and
// reassigned, or its block was completed by someone else) learns so
// from the 409 response to its next heartbeat or completion attempt and
// abandons the block by cancelling its RunShard context. Workers drain
// gracefully on context cancellation (the CLIs wire SIGINT/SIGTERM):
// in-flight units finish and are journaled, so a drained worker's
// partial block is resumed — not recomputed — by its next holder.
//
// cmd/sweepd exposes the coordinator as `sweepd coordinate` and the
// worker as `sweepd work`. The fault-injection suite (dist_test.go)
// pins byte-identical outputs under dropped/delayed/blackholed
// requests, workers killed mid-block, heartbeats delayed past the lease
// deadline, and coordinator restarts.
package dist
