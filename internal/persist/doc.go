// Package persist is the crash-consistent checkpoint/restore layer for the
// packing engine: a write-ahead log of committed engine events plus periodic
// full-state snapshots, both stored in a versioned, CRC-checksummed,
// length-prefixed record format.
//
// # Recovery model
//
// The design leans on the engine's determinism contract: the event stream is
// a pure function of (instance, policy, options), so recovery does not need
// to re-apply logged events as mutations. Instead it restores the newest
// valid snapshot and re-steps the engine, verifying that every regenerated
// event is bit-identical to the logged suffix — the WAL tells recovery how
// far the run had progressed and doubles as an end-to-end determinism check.
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
// Corruption never panics. Torn or bit-flipped tails are truncated at the
// first bad checksum, damaged snapshots are skipped in favour of older ones
// (or a from-scratch replay), and every tolerated defect is surfaced as a
// structured *CorruptionError in the recovery report.
//
// # Structure
//
//   - format.go, file.go: the record container — magic, version, FileKind,
//     per-record length prefix + CRC32C, fsync policy (Writer, ReadFile).
//   - meta.go: RunMeta identity block (workload hash, policy, seed, fault
//     plan) that guards against restoring a checkpoint into the wrong run.
//   - wal.go: event-record codec (AppendEventRecord, DecodeEventRecord).
//   - snapcodec.go: the engine snapshot codec (EncodeSnapshot,
//     DecodeSnapshot).
//   - session.go: Session/Begin — the producer side: append events, cut
//     snapshots every N events, rotate files.
//   - compact.go: WAL compaction, the only file rewrite: once a snapshot at
//     event k is durable, the WAL keeps only events past k. After the
//     rename lands, the session always switches to a writer that opens the
//     WAL by name at its next Sync and finishes a failed directory sync
//     there, so every fault in that window is a retryable Sync error.
//   - oplog.go: a dynamic run's op log (the admitted items and clock
//     advances), append-only; recovery rebuilds the item list from it.
//   - errors.go: the corruption/disk-full/transient/fatal error taxonomy.
//   - recover.go: Recover — the consumer side described above.
//
// The kill-and-recover torture tests (torture_test.go and cmd/dvbpchaos)
// exercise the full matrix: process kills at arbitrary event indices, WAL
// truncations, snapshot deletions, and random bit flips.
package persist
