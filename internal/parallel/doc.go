// Package parallel provides the deterministic fan-out machinery the
// experiment harness uses to run thousands of independent simulation trials
// across CPU cores.
//
// # Scheduler
//
// The execution engine is a work-stealing shard scheduler (see Run): bounded
// workers own contiguous index blocks and steal from each other when they run
// dry, so throughput degrades gracefully when shard costs are skewed (a few
// slow exact-OPT shards among thousands of cheap heuristic ones).
//
// # Determinism contract
//
// Every shard derives its behaviour from its index alone (seeded via SeedFor
// or Derive) and results are collected by index, so the outcome is
// bit-identical regardless of GOMAXPROCS, steal pattern, or completion
// order. Errors cancel the remaining work; the reported error is the
// smallest-indexed failure observed before cancellation took effect — again
// independent of scheduling. Worker panics are captured and rethrown as
// *PanicError rather than tearing down the process.
//
// # API layers
//
//   - Run is the primitive: n indexed shards, a context for cancellation,
//     RunOptions for worker count and ProgressFunc reporting.
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
