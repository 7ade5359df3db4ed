package persist

import (
	"encoding/binary"
	"path/filepath"
)

// WAL compaction (DESIGN.md §15). Once a snapshot at event k is durable, the
// WAL's prefix 1..k is dead weight: recovery restores the snapshot and
// replays only k+1..n. Compact rewrites the WAL as
//
//	header | meta | marker(k) | events k+1..n
//
// via the usual write-temp + rename + dir-sync dance, so a power loss at any
// point leaves either the old WAL or the new one — both consistent with the
// durable snapshot. The marker record carries the truncation base so replay
// numbering stays verifiable: the j-th surviving event must claim sequence
// k+j. Its first byte sits outside the event-class range, so no event record
// can be mistaken for it (and vice versa — DecodeEventRecord rejects it).
//
// Ordering rules, in the order they matter:
//
//  1. snapshot at k durable (Checkpoint: WAL synced first, snapshot renamed
//     + dir-synced) BEFORE the WAL prefix may go;
//  2. the new WAL durable under the final name BEFORE the old snapshots
//     below k may go;
//  3. pruning old snapshots is garbage collection, safe to lose — a crash
//     between 2 and 3 leaves harmless extra files the next compaction sweeps.

// compactMarkerByte tags the compaction marker record. Event records start
// with an EventClass (small integers well below this); DecodeEventRecord
// rejects the byte, and decodeCompactMarker rejects event records.
const compactMarkerByte = 0xC7

// encodeCompactMarker serialises a marker claiming the WAL was truncated at
// base (events 1..base removed; a snapshot at base or later must exist).
func encodeCompactMarker(base int64) []byte {
	dst := []byte{compactMarkerByte}
	return binary.AppendVarint(dst, base)
}

// isCompactMarker reports whether payload is a marker record.
func isCompactMarker(payload []byte) bool {
	return len(payload) > 0 && payload[0] == compactMarkerByte
}

// decodeCompactMarker is the inverse of encodeCompactMarker; malformed input
// returns a *CorruptionError.
func decodeCompactMarker(payload []byte) (int64, error) {
	if !isCompactMarker(payload) {
		return 0, corrupt("not a compaction marker")
	}
	base, n, ok := canonVarint(payload[1:])
	if !ok || n != len(payload)-1 {
		return 0, corrupt("malformed compaction marker")
	}
	if base < 1 {
		return 0, corrupt("compaction marker claims base %d < 1", base)
	}
	return base, nil
}

// Compact truncates the WAL prefix covered by the session's newest durable
// snapshot and prunes snapshots below the new base. A no-op (nil) when no
// snapshot is ahead of the current base. On-disk WAL size afterwards is
// O(events since that snapshot), so a run that checkpoints every E events
// keeps its directory at O(E) regardless of run length.
//
// An I/O error is retryable and leaves the session writing to the file that
// wal.dvbp names. Before the rename the old WAL stays in place and in use.
// Once the rename has landed the session always switches to a writer on the
// new file, which it opens by name at its next Sync. If the directory sync
// after the rename failed, that Sync re-runs it before it can return nil,
// and the snapshots below the new base stay until a later compaction: rule 2
// forbids pruning them while the rename may still be undone.
func (s *Session) Compact() error {
	if s.lastSnap <= s.walBase {
		return nil // nothing durable to drop
	}
	// Everything must be durable before the only copy of the suffix moves.
	if err := s.wal.Sync(); err != nil {
		return err
	}
	path := filepath.Join(s.cfg.Dir, walFile)
	fd, err := ReadFile(s.fsys, path)
	if err != nil {
		return err
	}
	if fd.Torn != nil {
		return fd.Torn // a just-synced WAL must read back clean
	}
	if len(fd.Records) == 0 {
		return corrupt("compacting %s: no records", path)
	}
	content := appendHeader(nil, KindWAL)
	content = appendRecord(content, fd.Records[0]) // meta, verbatim
	content = appendRecord(content, encodeCompactMarker(s.lastSnap))
	evs := fd.Records[1:]
	if len(evs) > 0 && isCompactMarker(evs[0]) {
		evs = evs[1:]
	}
	skip := s.lastSnap - s.walBase
	if skip > int64(len(evs)) {
		return corrupt("compacting %s: snapshot at %d but only %d events past base %d", path, s.lastSnap, len(evs), s.walBase)
	}
	for _, r := range evs[skip:] {
		content = appendRecord(content, r)
	}
	if err := replaceFile(s.fsys, path, content); err != nil {
		return err
	}
	// The old descriptor now points at an unlinked inode; swap writers.
	s.wal.Discard()
	dirErr := syncDir(s.fsys, s.cfg.Dir)
	s.wal = reopen(s.fsys, path, int64(len(content)), s.cfg.SyncEvery, dirErr != nil)
	s.walBase = s.lastSnap
	s.stats.Compactions++
	s.stats.ReclaimedBytes += fd.Size - int64(len(content))
	if dirErr != nil {
		return dirErr
	}

	// Garbage-collect snapshots that predate the base: recovery can no
	// longer use them (the events to replay past them are gone). Failures
	// here are cosmetic; the next compaction retries.
	snaps, err := listSnapshots(s.fsys, s.cfg.Dir)
	if err != nil {
		return nil
	}
	for _, sf := range snaps {
		if sf.seq >= s.walBase {
			continue
		}
		p := filepath.Join(s.cfg.Dir, sf.name)
		if info, err := s.fsys.Stat(p); err == nil {
			if s.fsys.Remove(p) == nil {
				s.stats.ReclaimedBytes += info.Size()
			}
		}
	}
	return nil
}
