// Package parallel provides the deterministic fan-out machinery the
// experiment harness uses to run thousands of independent simulation trials
// across CPU cores.
//
// # Scheduler
//
// Run is a shared-counter shard scheduler: a bounded pool of workers each
// claims the next unclaimed shard index from one atomic counter until every
// index is taken. An idle worker simply takes the next index, so skewed shard
// costs (a few slow exact-OPT shards among many cheap heuristic ones) need no
// stealing to balance.
//
// # Determinism contract
//
// Every shard derives its behaviour from its index alone (seeded via SeedFor
// or Derive) and results are collected by index, so the outcome is
// bit-identical regardless of GOMAXPROCS, worker count, or completion order.
// Errors cancel the remaining work; the reported error is the
// smallest-indexed failure observed before cancellation took effect — again
// independent of scheduling. Worker panics are captured and rethrown as
// *PanicError rather than tearing down the process.
//
// # API layers
//
//   - Run is the primitive: n indexed shards, a context for cancellation,
//     RunOptions for the worker count.
//   - MapShards collects per-shard results by index on top of Run; callers
//     fold them in index order, keeping aggregate statistics deterministic.
//   - SeedFor and Derive split a base seed into per-shard and per-label
//     streams with a SplitMix64 step, so adding a new randomness consumer
//     never perturbs existing streams.
//
// The `make stress` target repeatedly runs this package's tests under the
// race detector with GOMAXPROCS forced above the core count to shake out
// rare interleavings.
package parallel
