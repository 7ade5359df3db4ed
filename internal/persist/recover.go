package persist

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vfs"
)

// Recovery reports how a run was brought back: which snapshot seeded the
// engine, how many events were re-stepped past it, and every corruption that
// was detected and tolerated along the way.
type Recovery struct {
	// Session is the resumed session, positioned exactly where the op log
	// pins the run; Step/Run continue the run, Finish seals it.
	Session *Session
	// Meta is the recovered run's identity.
	Meta RunMeta
	// SnapshotSeq is the event sequence of the snapshot the engine was
	// restored from (0 = no usable snapshot, re-stepped from the start).
	SnapshotSeq int64
	// SnapshotPath is the file the engine was restored from ("" for scratch).
	SnapshotPath string
	// Replayed is the number of events re-stepped past the snapshot.
	Replayed int64
	// SweptTemp counts orphaned atomic-write temp files (".tmp-" leftovers
	// from a crash mid-rename) deleted before recovery began.
	SweptTemp int
	// Corruptions lists every defect recovery tolerated: a torn op-log tail
	// and the snapshots it had to skip. Recovery only fails outright when
	// nothing consistent remains.
	Corruptions []*CorruptionError
}

// Recover resumes the persisted run in cfg.Dir against the given instance
// (for a dynamic run, the list ReadOpLog rebuilt from the same log). The
// opts must reproduce the original run's configuration (injector, retry,
// admission control, observers) — the engine is deterministic in them, and
// the digest marks catch a mismatch as a divergence.
//
// Recovery: sweep temp-file orphans; read the op log, truncating at the
// first torn record; restore the newest snapshot that decodes cleanly,
// carries an event digest and matches the run (a fresh engine when none
// does, as for a faulty, capped or migrating run, which never checkpoints);
// re-step the engine to the position the log pins, comparing the
// rolling event digest at every mark it passes; then reopen the log for
// appending, with any torn tail truncated away.
//
// The position of a static run is the later of the restored snapshot and
// the last mark. A dynamic run's is where every logged item's arrival has
// committed and then every pending event at or before the largest logged
// advance target.
func Recover(l *item.List, cfg Config, opts ...core.Option) (*Recovery, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("persist: no checkpoint directory configured")
	}
	fsys := vfs.OrOS(cfg.FS)
	rec := &Recovery{}

	// 0. Sweep orphaned atomic-write temp files: a crash between CreateTemp
	// and Rename leaves a ".tmp-" file that no future rename will claim.
	// They are garbage by construction — the atomic-write protocol only
	// renames a temp it just wrote — so deleting them is always safe.
	rec.SweptTemp = sweepTempFiles(fsys, cfg.Dir)

	// 1. The op log: the run's identity, a dynamic run's inputs, and the
	// digest marks. Every corruption it reports carries the run's label.
	path := filepath.Join(cfg.Dir, opsFile)
	logged, err := ReadOpLog(fsys, path, cfg.Label)
	if err != nil {
		return nil, fmt.Errorf("recovering %s: %w", cfg.Dir, err)
	}
	if logged.Torn != nil {
		rec.Corruptions = append(rec.Corruptions, logged.Torn)
	}
	meta := logged.Meta
	err = meta.check(l)
	if err == nil && meta.Dynamic && !sameItems(l, logged.List) {
		err = fmt.Errorf("persist: the supplied %d-item list is not the %d items %s logs", l.Len(), logged.List.Len(), path)
	}
	if err != nil {
		if cfg.Label != "" {
			return nil, fmt.Errorf("run %q: %w", cfg.Label, err)
		}
		return nil, err
	}
	rec.Meta = meta

	// 2. The newest usable snapshot, or a fresh engine.
	engine, digest, err := restoreNewest(fsys, l, meta, cfg, opts, rec)
	if err != nil {
		return nil, err
	}
	corruptLog := func(reason string, args ...any) error {
		engine.Close()
		return &CorruptionError{Run: cfg.Label, Path: path, Offset: -1, Record: -1, Reason: fmt.Sprintf(reason, args...)}
	}

	// 3. Re-step to the position, checking the digest at every mark. Marks
	// before the restored event cannot be checked: the snapshot carries only
	// the digest at its own event.
	marks := logged.marks
	for len(marks) > 0 && marks[0].Seq < engine.EventSeq() {
		marks = marks[1:]
	}
	verify := func(seq int64) error {
		if len(marks) == 0 || marks[0].Seq != seq {
			return nil
		}
		m := marks[0]
		marks = marks[1:]
		if m.Digest == digest.sum {
			return nil
		}
		return corruptLog("replay divergence at event %d: the engine's event digest is %016x, the log marks %016x — corrupt log or mismatched run options", seq, digest.sum, m.Digest)
	}
	if err := verify(engine.EventSeq()); err != nil {
		return nil, err
	}
	short := func() bool { return len(marks) > 0 }
	if meta.Dynamic {
		short = func() bool {
			if engine.Stats().ArrivalsPending > 0 {
				return true
			}
			t, ok := engine.PeekTime()
			return ok && t <= logged.MaxAdvance
		}
	}
	for short() {
		ev, ok, err := engine.Step()
		if err != nil {
			engine.Close()
			return nil, fmt.Errorf("persist: replay failed at event %d: %w", engine.EventSeq()+1, err)
		}
		if !ok {
			break
		}
		digest.fold(ev)
		rec.Replayed++
		if err := verify(ev.Seq); err != nil {
			return nil, err
		}
	}
	if len(marks) > 0 {
		return nil, corruptLog("the log marks event %d, past the run's end position %d — wrong instance or options", marks[0].Seq, engine.EventSeq())
	}

	// 4. Reopen the log for appending, truncated to its intact prefix.
	log, err := openAppend(fsys, path, logged.ValidSize)
	if err != nil {
		engine.Close()
		return nil, err
	}
	var last int64
	if n := len(logged.marks); n > 0 {
		last = logged.marks[n-1].Seq
	}
	rec.Session = &Session{cfg: cfg, fsys: fsys, meta: meta, engine: engine, log: log,
		digest: digest, marked: last, durable: last}
	return rec, nil
}

// sameItems reports whether two lists hold equal items in the same order.
func sameItems(a, b *item.List) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, x := range a.Items {
		y := b.Items[i]
		if x.Arrival != y.Arrival || x.Departure != y.Departure || !x.Size.Equal(y.Size, 0) {
			return false
		}
	}
	return true
}

// sweepTempFiles deletes atomic-write leftovers (names containing ".tmp-")
// from dir, returning how many went. Errors are deliberately ignored: a
// missing directory just means there is nothing to sweep, and a temp file
// that will not delete is rediscovered next recovery.
func sweepTempFiles(fsys vfs.FS, dir string) int {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp-") {
			continue
		}
		if fsys.Remove(filepath.Join(dir, e.Name())) == nil {
			n++
		}
	}
	return n
}

// snapFile is one discovered snapshot file.
type snapFile struct {
	name string
	seq  int64
}

// listSnapshots finds snapshot files in dir, ascending by event sequence.
func listSnapshots(fsys vfs.FS, dir string) ([]snapFile, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, ioErr("readdir", dir, err)
	}
	var out []snapFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		seq, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 10, 64)
		if err != nil || seq < 0 {
			continue // foreign file that happens to match the shape
		}
		out = append(out, snapFile{name: name, seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// restoreNewest restores the engine, and the event digest at its event, from
// the newest usable snapshot, falling back through older snapshots to a
// fresh engine. Skipped snapshots are recorded in rec.Corruptions.
func restoreNewest(fsys vfs.FS, l *item.List, meta RunMeta, cfg Config, opts []core.Option, rec *Recovery) (*core.Engine, eventDigest, error) {
	snaps, err := listSnapshots(fsys, cfg.Dir)
	if err != nil {
		return nil, eventDigest{}, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		sf := snaps[i]
		path := filepath.Join(cfg.Dir, sf.name)
		skip := func(why string, cause error) {
			ce := &CorruptionError{Run: cfg.Label, Path: path, Offset: -1, Record: -1, Reason: why, Err: cause}
			rec.Corruptions = append(rec.Corruptions, ce)
		}
		engine, mark, err := restoreSnapshotFile(fsys, path, l, meta, opts)
		if err != nil {
			skip("unusable snapshot", err)
			continue
		}
		if engine.EventSeq() != sf.seq || mark.Seq != sf.seq {
			engine.Close()
			skip(fmt.Sprintf("snapshot content is at event %d with a digest at event %d but file name claims %d", engine.EventSeq(), mark.Seq, sf.seq), nil)
			continue
		}
		rec.SnapshotSeq = sf.seq
		rec.SnapshotPath = path
		return engine, eventDigest{sum: mark.Digest}, nil
	}
	// From scratch: a fresh engine re-steps the whole run.
	p, err := core.NewPolicy(meta.Policy, meta.Seed)
	if err != nil {
		return nil, eventDigest{}, fmt.Errorf("persist: %w", err)
	}
	engine, err := core.NewEngine(l, p, opts...)
	if err != nil {
		return nil, eventDigest{}, err
	}
	return engine, eventDigest{}, nil
}

// restoreSnapshotFile loads one snapshot file (meta | mark | engine
// snapshot) into a restored engine and returns the digest mark it carries.
func restoreSnapshotFile(fsys vfs.FS, path string, l *item.List, meta RunMeta, opts []core.Option) (*core.Engine, Op, error) {
	var mark Op
	fd, err := ReadFile(fsys, path)
	if err != nil {
		return nil, mark, err
	}
	if fd.Kind != KindSnapshot {
		return nil, mark, corrupt("expected a snapshot file, found kind %d", fd.Kind)
	}
	if fd.Torn != nil {
		// Unlike the op log, a snapshot is all-or-nothing.
		return nil, mark, fd.Torn
	}
	// The file is meta | mark | engine snapshot. A snapshot written before
	// event digests holds the engine snapshot where the mark belongs, and
	// its first byte is the codec version, never OpMark.
	if recs := fd.Records; len(recs) < 2 || len(recs[1]) == 0 || OpKind(recs[1][0]) != OpMark {
		return nil, mark, corrupt("snapshot carries no event digest")
	}
	if len(fd.Records) != 3 {
		return nil, mark, corrupt("snapshot file has %d records, want meta + digest + snapshot", len(fd.Records))
	}
	fileMeta, err := decodeMeta(fd.Records[0])
	if err != nil {
		return nil, mark, err
	}
	if !fileMeta.equal(meta) {
		return nil, mark, corrupt("snapshot belongs to a different run (meta %+v, want %+v)", fileMeta, meta)
	}
	if mark, err = DecodeOp(fd.Records[1], meta.Dim); err != nil {
		return nil, mark, err
	}
	snap, err := DecodeSnapshot(fd.Records[2])
	if err != nil {
		return nil, mark, err
	}
	p, err := core.NewPolicy(meta.Policy, meta.Seed)
	if err != nil {
		return nil, mark, fmt.Errorf("persist: %w", err)
	}
	engine, err := core.RestoreEngine(l, p, snap, opts...)
	if err != nil {
		return nil, mark, err
	}
	return engine, mark, nil
}
