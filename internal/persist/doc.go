// Package persist is the crash-consistent checkpoint/restore layer for the
// packing engine: one durable op log per run plus, for a placement server
// tenant, periodic engine snapshots, both stored in a versioned,
// CRC-checksummed, length-prefixed record format.
//
// # Recovery model
//
// The design leans on the engine's determinism contract: the event stream is
// a pure function of (instance, policy, options), so durable state only has
// to pin where a run was, not what it computed. The op log holds the run's
// identity, a dynamic run's inputs (admitted items and clock advances, each
// durable before the engine steps it), and digest marks: a rolling CRC-64 of
// the committed events, appended at every sync barrier. Recovery restores
// the newest snapshot that carries a digest (or starts a fresh engine) and
// re-steps the engine to the position the log pins, comparing its own digest
// at every mark it passes; a mismatch is a replay divergence.
//
// Only a run core.Engine.Snapshot accepts checkpoints: a server tenant's
// fault-free, uncapped, irrevocable run. A persisted dvbpsim or dvbpchaos
// run (faults, admission control, migration, a -metrics collector) writes
// only its op log and resumes by re-stepping it from event 0, which feeds
// every observer every event again; a snapshot file is exactly
// meta | mark | engine snapshot, with no side state.
//
// Derived structures are deliberately absent from the on-disk format. An
// engine snapshot stores the open bins' items and load sums, the policy's
// state, the cost so far and the bin of each committed arrival, and
// core.RestoreEngine derives the pending departures, the placement records,
// the bins' records, the outcomes, the clock and the Result's header from
// them and the instance (DESIGN.md §10). Worst Fit's bin index and the engine's held open-load
// totals are rebuilt from the snapshot's open-bin set on restore (the index
// at the next dispatch, when the snapshot's peak open-bin count has reached
// the engine's threshold); because the index's layout is a pure function of
// the open set (DESIGN.md §11), the rebuilt index equals the one the
// crashed process held, down to the fit-check counts it produces — which is
// what lets a restored run emit byte-identical metrics, not just
// byte-identical placements.
//
// # Corruption handling
//
// Corruption never panics. A torn or bit-flipped op-log tail is truncated at
// the first bad checksum, damaged snapshots are skipped in favour of older
// ones (or a fresh engine), and every tolerated defect is surfaced as a
// structured *CorruptionError in the recovery report.
//
// # Structure
//
//   - format.go, file.go: the record container — magic, version, FileKind,
//     per-record length prefix + CRC32C, the buffered Writer with its
//     retryable Sync and Rollback, ReadFile, WriteFileAtomic.
//   - meta.go: RunMeta identity block (workload hash, policy, seed, fault
//     plan) that guards against restoring a checkpoint into the wrong run.
//   - digest.go: the event record encoding (AppendEventRecord) and the
//     rolling event digest the marks carry.
//   - snapcodec.go: the engine snapshot codec (EncodeSnapshot,
//     DecodeSnapshot).
//   - oplog.go: the op log's record codec (items, advances, marks) and
//     ReadOpLog, which rebuilds a dynamic run's item list and watermark.
//   - session.go: Session/Begin — the producer side: append ops, step the
//     engine, sync with a digest mark, cut snapshots every N events (Every,
//     a server tenant's CheckpointEvery) and prune the older ones.
//   - errors.go: the corruption/disk-full/transient/fatal error taxonomy.
//   - recover.go: Recover — the consumer side described above — and
//     RecoverLogged, the same over an op log the caller has already read.
//
// The kill-and-recover torture tests (torture_test.go, vfs_torture_test.go
// and cmd/dvbpchaos) exercise the full matrix: process kills at arbitrary
// event indices, power loss at every filesystem operation, op-log
// truncations, snapshot deletions, and random bit flips.
package persist
