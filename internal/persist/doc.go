// Package persist is the crash-consistent checkpoint/restore layer for the
// packing engine: one durable op log per run plus periodic full-state
// snapshots, both stored in a versioned, CRC-checksummed, length-prefixed
// record format.
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
// Derived structures are deliberately absent from the on-disk format. In
// particular the engine's indexed bin store (internal/binindex) and its
// held open-load totals are rebuilt from the snapshot's open-bin set on
// restore; because the store's shape is a pure function of its contents
// (DESIGN.md §11), the rebuilt index is structurally identical to the one
// the crashed process held, down to the fit-check counts it produces —
// which is what lets a restored run emit byte-identical metrics, not just
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
//     engine, sync with a digest mark, cut snapshots every N events and
//     prune the older ones.
//   - errors.go: the corruption/disk-full/transient/fatal error taxonomy.
//   - recover.go: Recover — the consumer side described above.
//
// The kill-and-recover torture tests (torture_test.go, vfs_torture_test.go
// and cmd/dvbpchaos) exercise the full matrix: process kills at arbitrary
// event indices, power loss at every filesystem operation, op-log
// truncations, snapshot deletions, and random bit flips.
package persist
