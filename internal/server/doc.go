// Package server is the placement-as-a-service layer: a multi-tenant HTTP
// front end over the steppable engine (internal/core) and its crash-safe
// persistence (internal/persist). Each tenant is an independent dynamic DVBP
// run — its own policy, dimension, seed, op log and checkpoints under one
// directory — driven by a single worker goroutine that batches requests from
// a bounded queue and group-commits them.
//
// The durability contract is one fsync barrier per batch: client operations
// are appended to the tenant's op log and synced before the engine steps
// them and before any client is acknowledged, so an acknowledged placement
// survives SIGKILL. Each barrier also writes a digest mark of the events the
// previous batches committed. Recovery rebuilds each tenant's item list from
// its op log, restores the newest snapshot and re-steps the engine to the
// position the log pins, checking the digest at every mark; see DESIGN.md
// §12.
//
// Backpressure is explicit: a full tenant queue answers 429, an expired
// request deadline or a draining server answers 503, and /healthz–/readyz
// split process liveness from serving readiness so a restart harness can wait
// for recovery to finish before resuming load.
package server
