package persist

import (
	"encoding/binary"
	"fmt"
	"path/filepath"

	"dvbp/internal/core"
	"dvbp/internal/vfs"
)

// File names inside a checkpoint directory.
const (
	opsFile    = "ops.dvbp"
	snapPrefix = "snap-"
	snapSuffix = ".dvbp"
)

// snapName renders the snapshot file name for a checkpoint at eventSeq.
func snapName(eventSeq int64) string {
	return fmt.Sprintf("%s%016d%s", snapPrefix, eventSeq, snapSuffix)
}

// AuxCodec lets a subsystem outside the engine (the metrics registry) ride
// along in snapshots: Marshal captures its state at a checkpoint, Unmarshal
// restores it before replay. The contract mirrors the engine's: aux state
// captured at event k, plus replay of events k+1..n through the subsystem's
// ordinary observer callbacks, must equal the uninterrupted state at n.
type AuxCodec interface {
	// AuxKey names the blob inside snapshot files; keys must be unique
	// within a session.
	AuxKey() string
	MarshalAux() ([]byte, error)
	UnmarshalAux(data []byte) error
}

// Config shapes a persistence session.
type Config struct {
	// Dir is the checkpoint directory (created if missing).
	Dir string
	// Label names the run for error reporting — the tenant name in a
	// multi-tenant directory layout. Every *CorruptionError that recovery
	// detects or tolerates carries it, so logs say whose op log was truncated
	// rather than just which file.
	Label string
	// Every takes an automatic checkpoint after this many events; 0 disables
	// automatic checkpoints (recovery then re-steps the run from its start).
	Every int64
	// SyncEvery is how many events Step commits between automatic op-log
	// fsyncs (default 64; SyncManual leaves every fsync to explicit Sync
	// calls).
	SyncEvery int
	// Aux subsystems checkpointed alongside the engine.
	Aux []AuxCodec
	// FS is the filesystem seam every file operation goes through; nil means
	// the real filesystem. Tests inject vfs.Mem or a vfs.Injector here.
	FS vfs.FS
	// Compact has no effect; it stays so existing callers compile. Every
	// checkpoint deletes the snapshots older than itself (DESIGN.md §15).
	Compact bool
}

// IOStats counts the I/O weather a session rode through: transient failures
// it absorbed (to be retried by later barriers) and checkpoints it skipped.
// TakeIOStats drains them; the server exports them as metrics.
type IOStats struct {
	// SyncFailures counts recoverable failures of Step's automatic op-log
	// fsync that were absorbed: the records stayed buffered and a later Sync
	// retried them.
	SyncFailures int64
	// CheckpointsSkipped counts automatic checkpoints skipped on recoverable
	// I/O errors; the next interval tries again.
	CheckpointsSkipped int64
}

// Session couples a stepping engine to its op log, the run's one durable
// log: a dynamic run's inputs go in before the engine steps them, every
// barrier adds a digest mark of the events committed so far, and checkpoints
// capture engine + aux state between events. The caller owns the engine's
// lifecycle through the session (Step/Finish/Close), never directly.
type Session struct {
	cfg    Config
	fsys   vfs.FS
	meta   RunMeta
	engine *core.Engine
	log    *Writer
	digest eventDigest
	buf    []byte

	marked  int64 // event seq of the newest mark appended to the log
	durable int64 // event seq of the newest mark the log holds durably
	stats   IOStats
}

// Begin starts persisting a fresh run: it creates the directory and the op
// log (truncating any previous run in the directory), whose durable meta
// record identifies the run.
func Begin(e *core.Engine, meta RunMeta, cfg Config) (*Session, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("persist: no checkpoint directory configured")
	}
	if !core.CheckpointablePolicy(e.Policy()) {
		return nil, fmt.Errorf("persist: policy %s carries state but implements no PolicyStateCodec", e.Policy().Name())
	}
	if err := checkAuxKeys(cfg.Aux); err != nil {
		return nil, err
	}
	fsys := vfs.OrOS(cfg.FS)
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, ioErr("mkdir", cfg.Dir, err)
	}
	// Remove checkpoints from any earlier run in the directory: they would
	// otherwise be mistaken for this run's on recovery.
	old, err := listSnapshots(fsys, cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, f := range old {
		if err := fsys.Remove(filepath.Join(cfg.Dir, f.name)); err != nil {
			return nil, ioErr("remove", f.name, err)
		}
	}
	log, err := Create(fsys, filepath.Join(cfg.Dir, opsFile), KindOpLog, encodeMeta(meta))
	if err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, fsys: fsys, meta: meta, engine: e, log: log}, nil
}

// Engine exposes the engine the session is persisting.
func (s *Session) Engine() *core.Engine { return s.engine }

// TakeIOStats returns and resets the session's I/O counters.
func (s *Session) TakeIOStats() IOStats {
	st := s.stats
	s.stats = IOStats{}
	return st
}

// AppendOp buffers one op-log record (AppendItemOp, AppendAdvanceOp) for the
// next Sync. A dynamic run's ops must be durable before the engine steps the
// events they cause: recovery re-steps the engine to what the log holds.
func (s *Session) AppendOp(payload []byte) { s.log.Append(payload) }

// Step commits one engine event and folds it into the event digest, syncs
// the op log every SyncEvery events, and takes an automatic checkpoint when
// the configured interval elapses. ok=false means the run is complete (call
// Finish).
//
// Recoverable I/O errors (transient EIO, a full disk) on the auto-sync and
// checkpoint paths are absorbed and counted in IOStats, not returned: the
// appended records stay buffered and the next barrier retries them, a skipped
// checkpoint just means the next interval tries again. An error from Step is
// therefore always corruption or fatal.
func (s *Session) Step() (rec core.EventRecord, ok bool, err error) {
	rec, ok, err = s.engine.Step()
	if err != nil || !ok {
		return rec, ok, err
	}
	s.digest.fold(rec)
	every := int64(s.cfg.SyncEvery)
	if every == 0 {
		every = defaultSyncEvery
	}
	if every > 0 && rec.Seq-s.durable >= every {
		if err := s.Sync(); err != nil {
			if !Recoverable(err) {
				return rec, false, err
			}
			s.stats.SyncFailures++ // records stay buffered; a later Sync retries
		}
	}
	if s.cfg.Every > 0 && rec.Seq%s.cfg.Every == 0 {
		if err := s.Checkpoint(); err != nil {
			if !Recoverable(err) {
				return rec, false, err
			}
			s.stats.CheckpointsSkipped++
		}
	}
	return rec, true, nil
}

// mark appends a digest mark for the current event when the engine has
// moved since the last one.
func (s *Session) mark() {
	if seq := s.engine.EventSeq(); seq != s.marked {
		s.buf = appendMark(s.buf[:0], seq, s.digest.sum)
		s.log.Append(s.buf)
		s.marked = seq
	}
}

// Sync is the barrier: it appends a digest mark when the engine has moved
// since the last one, then forces every appended record down to the device.
// A server runs it between admitting a batch's ops and stepping them, so no
// client ever holds an acknowledgement for an input a crash can undo. Unlike
// Step's automatic paths, Sync reports recoverable errors to the caller: the
// barrier is exactly where honesty about durability is due.
func (s *Session) Sync() error {
	s.mark()
	if err := s.log.Sync(); err != nil {
		return err
	}
	s.durable = s.marked
	return nil
}

// Rollback abandons every record appended since the last successful Sync —
// ops and mark alike — so a failed barrier leaves the log exactly as it was.
// An error means the truncation itself failed; the caller must treat the
// on-disk tail as unknown.
func (s *Session) Rollback() error {
	if err := s.log.Rollback(); err != nil {
		return err
	}
	s.marked = s.durable
	return nil
}

// Checkpoint captures the engine and aux state at the current event boundary,
// with the event digest there, into an atomically-written snapshot file.
// Once it is durable every older snapshot is deleted. The op log needs no
// sync first: a dynamic run's ops are durable before the engine steps them,
// and a static snapshot pins its own position.
func (s *Session) Checkpoint() error {
	snap, err := s.engine.Snapshot()
	if err != nil {
		return err
	}
	content := appendHeader(nil, KindSnapshot)
	content = appendRecord(content, encodeMeta(s.meta))
	content = appendRecord(content, appendMark(nil, snap.EventSeq, s.digest.sum))
	content = appendRecord(content, EncodeSnapshot(snap))
	for _, aux := range s.cfg.Aux {
		blob, err := aux.MarshalAux()
		if err != nil {
			return fmt.Errorf("persist: aux %q: %w", aux.AuxKey(), err)
		}
		content = appendRecord(content, encodeAux(aux.AuxKey(), blob))
	}
	if err := WriteFileAtomic(s.fsys, filepath.Join(s.cfg.Dir, snapName(snap.EventSeq)), content); err != nil {
		return err
	}
	// Older snapshots are garbage now; a failed delete leaves one for the
	// next checkpoint to retry.
	if snaps, err := listSnapshots(s.fsys, s.cfg.Dir); err == nil {
		for _, sf := range snaps {
			if sf.seq < snap.EventSeq {
				s.fsys.Remove(filepath.Join(s.cfg.Dir, sf.name))
			}
		}
	}
	return nil
}

// Finish appends the final mark, syncs and closes the op log, and seals the
// engine into its Result.
func (s *Session) Finish() (*core.Result, error) {
	s.mark()
	if err := s.log.Close(); err != nil {
		s.engine.Close()
		return nil, err
	}
	return s.engine.Finish()
}

// Close abandons the session: the op log is synced with a final mark so
// everything logged survives, and the engine's policy guard is released. A
// later Recover picks the run back up.
func (s *Session) Close() error {
	s.mark()
	err := s.log.Close()
	s.engine.Close()
	return err
}

// Run drives the session to completion: Step until the event stream drains,
// then Finish.
func (s *Session) Run() (*core.Result, error) {
	for {
		_, ok, err := s.Step()
		if err != nil {
			s.Close()
			return nil, err
		}
		if !ok {
			break
		}
	}
	return s.Finish()
}

// Aux record payload: uvarint key length | key | blob.
func encodeAux(key string, blob []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(key)))
	out = append(out, key...)
	return append(out, blob...)
}

func decodeAux(payload []byte) (key string, blob []byte, err error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || n > uint64(len(payload)-w) {
		return "", nil, corrupt("malformed aux record")
	}
	return string(payload[w : w+int(n)]), payload[w+int(n):], nil
}

func checkAuxKeys(aux []AuxCodec) error {
	seen := make(map[string]bool, len(aux))
	for _, a := range aux {
		k := a.AuxKey()
		if k == "" {
			return fmt.Errorf("persist: empty aux key")
		}
		if seen[k] {
			return fmt.Errorf("persist: duplicate aux key %q", k)
		}
		seen[k] = true
	}
	return nil
}
