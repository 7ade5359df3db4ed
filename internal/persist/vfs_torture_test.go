package persist

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vfs"
)

// This file is the disk-fault torture wall (DESIGN.md §15): every test runs
// the persistence stack over vfs.Mem, whose power-loss model only keeps what
// was explicitly fsynced, and sweeps EVERY mutating filesystem operation as a
// crash point. The invariant under test is total: for each op index i, a
// power loss at i followed by recovery must reach a final result
// byte-identical to the uninterrupted run — including crashes that land in
// the middle of a checkpoint rename or the pruning behind it.

// tortureCrashOK reports whether a recovery failure is the one legitimate
// kind: the crash predates the first durable run meta, so there is no run to
// recover and starting fresh loses nothing (nothing was ever acknowledged).
func tortureCrashOK(err error) bool {
	if errors.Is(err, iofs.ErrNotExist) {
		return true
	}
	var ce *CorruptionError
	return errors.As(err, &ce) && strings.Contains(ce.Reason, "no run meta record survived")
}

// TestDiskTortureCrashPointsStatic records how many mutating FS operations an
// uninterrupted persisted run performs, then replays the run once per
// operation index with a simulated power loss at exactly that operation —
// cycling lost/flushed/torn crash modes — recovers, finishes, and demands the
// byte-identical result every single time. It sweeps a faulty run, which
// recovers by replay, and a fault-free run with automatic checkpoints, each
// pruning the one before it; frequent fsync batching lands crash points
// between marks as well as inside batches.
func TestDiskTortureCrashPointsStatic(t *testing.T) {
	l := testList(t, 40)
	for _, tr := range tortureRuns(8) {
		cfg := func(fsys vfs.FS) Config {
			return Config{Dir: "run", Every: tr.every, SyncEvery: 2, FS: fsys}
		}
		// runOnce drives one fresh static run to completion on fsys.
		runOnce := func(fsys vfs.FS) (*core.Result, error) {
			e, err := core.NewEngine(l, newTestPolicy(t, "MoveToFront"), tr.opts...)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			s, err := Begin(e, NewRunMeta(l, "MoveToFront", 1, "test"), cfg(fsys))
			if err != nil {
				e.Close()
				return nil, err
			}
			return s.Run()
		}

		base := vfs.NewMem()
		res, err := runOnce(base)
		if err != nil {
			t.Fatalf("%s baseline run: %v", tr.name, err)
		}
		want := resultJSON(t, res)
		total := base.Ops()
		if total < 50 {
			t.Fatalf("%s baseline run performed only %d mutating FS ops — the sweep would prove nothing", tr.name, total)
		}

		fallbacks, recovered := 0, 0
		for i := int64(1); i <= total; i++ {
			m := vfs.NewMem()
			m.SetCrashPoint(i, vfs.CrashMode(i%3), 1+7*i)
			_, err := runOnce(m)
			if err == nil {
				t.Fatalf("%s crash point %d/%d never fired", tr.name, i, total)
			}
			if !errors.Is(err, vfs.ErrCrashed) {
				t.Fatalf("%s crash point %d: run died of %v, want ErrCrashed", tr.name, i, err)
			}
			if !m.Crashed() {
				t.Fatalf("%s crash point %d: error without a crash", tr.name, i)
			}
			m.Restart()

			var got string
			rec, rerr := Recover(l, cfg(m), tr.opts...)
			if rerr != nil {
				if !tortureCrashOK(rerr) {
					t.Fatalf("%s crash point %d/%d (mode %s): recovery failed: %v", tr.name, i, total, vfs.CrashMode(i%3), rerr)
				}
				// Nothing durable survived; a fresh run is the honest restart.
				res, err := runOnce(m)
				if err != nil {
					t.Fatalf("%s crash point %d: fresh restart failed: %v", tr.name, i, err)
				}
				got = resultJSON(t, res)
				fallbacks++
			} else {
				res, err := rec.Session.Run()
				if err != nil {
					t.Fatalf("%s crash point %d/%d: resumed run failed: %v", tr.name, i, total, err)
				}
				got = resultJSON(t, res)
				recovered++
			}
			if got != want {
				t.Fatalf("%s crash point %d/%d (mode %s): result diverged\n got %s\nwant %s",
					tr.name, i, total, vfs.CrashMode(i%3), got, want)
			}
		}
		if recovered == 0 {
			t.Fatalf("%s: all %d crash points fell back to fresh runs — recovery was never exercised", tr.name, total)
		}
		t.Logf("%s: swept %d crash points: %d recovered, %d legitimate fresh restarts", tr.name, total, recovered, fallbacks)
	}
}

// dynTortureMeta is the dynamic sweep's run identity.
func dynTortureMeta() RunMeta { return NewDynamicRunMeta(2, "firstfit", 11, "") }

// driveDynamicTorture runs the tenant-shaped one-barrier protocol over fsys:
// each item's op (and an advance every third item) appended and synced
// before the engine steps it, a checkpoint every 8 events, and at the end an
// advance past every departure before the run finishes, as a tenant draining
// its clock would. fresh=false resumes from whatever the directory durably
// holds, exactly like the server's recoverTenant: rebuild the list from the
// op log, recover to the position it pins, then feed the remaining suffix of
// items (identified positionally — the op log's item count is the resume
// cursor).
func driveDynamicTorture(t *testing.T, items []item.Item, fsys vfs.FS, fresh bool) (*core.Result, error) {
	t.Helper()
	const dir = "tenant"
	meta := dynTortureMeta()
	cfg := Config{Dir: dir, Label: "dyn", Every: 8, SyncEvery: SyncManual, FS: fsys}

	var s *Session
	from := 0
	if fresh {
		if err := vfs.OrOS(fsys).MkdirAll(dir, 0o755); err != nil {
			return nil, ioErr("mkdir", dir, err)
		}
		e, err := core.NewEngine(item.NewList(2), newTestPolicy(t, "firstfit"), core.WithDynamicArrivals())
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		s, err = Begin(e, meta, cfg)
		if err != nil {
			e.Close()
			return nil, err
		}
	} else {
		logged, err := ReadOpLog(fsys, filepath.Join(dir, opsFile), "dyn")
		if err != nil {
			return nil, err
		}
		if logged.Meta != meta {
			t.Fatalf("op log identity drifted: %+v", logged.Meta)
		}
		rec, err := Recover(logged.List, cfg, core.WithDynamicArrivals())
		if err != nil {
			if logged.List.Len() > 0 {
				t.Fatalf("op log holds %d items but recovery failed: %v", logged.List.Len(), err)
			}
			return nil, err
		}
		s = rec.Session
		from = logged.List.Len()
	}

	fail := func(err error) (*core.Result, error) {
		s.Close()
		return nil, err
	}
	stepTo := func(to float64) error {
		for {
			tt, ok := s.Engine().PeekTime()
			if !ok || tt > to {
				return nil
			}
			if _, ok, err := s.Step(); err != nil || !ok {
				return err
			}
		}
	}
	end := 0.0
	for _, it := range items {
		end = max(end, it.Departure)
	}
	for i := from; i < len(items); i++ {
		it := items[i]
		s.AppendOp(AppendItemOp(nil, it.Arrival, it.Departure, it.Size))
		adv := i%3 == 2
		if adv {
			s.AppendOp(AppendAdvanceOp(nil, it.Arrival))
		}
		if err := s.Sync(); err != nil { // the barrier: admission durable
			return fail(err)
		}
		id, err := s.Engine().AppendArrival(it.Arrival, it.Departure, it.Size)
		if err != nil {
			t.Fatalf("AppendArrival(%g): %v", it.Arrival, err)
		}
		for {
			rec, ok, err := s.Step()
			if err != nil {
				return fail(err)
			}
			if !ok {
				t.Fatalf("stream drained before arrival of item %d committed", id)
			}
			if rec.Class == core.EventArrival && rec.ItemID == id {
				break
			}
		}
		if adv {
			if err := stepTo(it.Arrival); err != nil {
				return fail(err)
			}
		}
	}
	s.AppendOp(AppendAdvanceOp(nil, end))
	if err := s.Sync(); err != nil {
		return fail(err)
	}
	if err := stepTo(end); err != nil {
		return fail(err)
	}
	return s.Run()
}

// TestDiskTortureCrashPointsDynamic is the dynamic-run (multi-tenant-shaped)
// crash-point sweep: the one-barrier op-log protocol, with snapshot pruning
// active, killed at every FS operation in turn and resumed through the same
// recovery the server uses. The final packing must come out
// byte-identical at every crash point — that is the acknowledged-placements
// contract made exhaustive.
func TestDiskTortureCrashPointsDynamic(t *testing.T) {
	items := dynItems(45)

	base := vfs.NewMem()
	res, err := driveDynamicTorture(t, items, base, true)
	if err != nil {
		t.Fatalf("baseline drive: %v", err)
	}
	want := resultJSON(t, res)
	total := base.Ops()
	if total < 100 {
		t.Fatalf("baseline drive performed only %d mutating FS ops", total)
	}

	fallbacks, recovered := 0, 0
	for i := int64(1); i <= total; i++ {
		m := vfs.NewMem()
		m.SetCrashPoint(i, vfs.CrashMode(i%3), 3+11*i)
		_, err := driveDynamicTorture(t, items, m, true)
		if err == nil {
			t.Fatalf("crash point %d/%d never fired", i, total)
		}
		if !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("crash point %d: drive died of %v, want ErrCrashed", i, err)
		}
		m.Restart()

		res, rerr := driveDynamicTorture(t, items, m, false)
		if rerr != nil {
			if !tortureCrashOK(rerr) {
				t.Fatalf("crash point %d/%d (mode %s): resume failed: %v", i, total, vfs.CrashMode(i%3), rerr)
			}
			// Crash predates any durable admission: fresh start is honest.
			if res, rerr = driveDynamicTorture(t, items, m, true); rerr != nil {
				t.Fatalf("crash point %d: fresh restart failed: %v", i, rerr)
			}
			fallbacks++
		} else {
			recovered++
		}
		if got := resultJSON(t, res); got != want {
			t.Fatalf("crash point %d/%d (mode %s): result diverged\n got %s\nwant %s",
				i, total, vfs.CrashMode(i%3), got, want)
		}
	}
	if recovered == 0 {
		t.Fatalf("all %d crash points fell back to fresh runs", total)
	}
	t.Logf("swept %d crash points: %d recovered, %d legitimate fresh restarts", total, recovered, fallbacks)
}

// TestCheckpointPrunesOlderSnapshots: once a checkpoint is durable, every
// older snapshot is gone, so a run keeps one snapshot on disk however long it
// runs, and reaches the same result as a run that never checkpoints.
func TestCheckpointPrunesOlderSnapshots(t *testing.T) {
	l := testList(t, 80)
	const every = 8

	run := func(every int64, m *vfs.Mem, each func(seq int64)) string {
		e, err := core.NewEngine(l, newTestPolicy(t, "MoveToFront"))
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		s, err := Begin(e, NewRunMeta(l, "MoveToFront", 1, "test"), Config{Dir: "run", Every: every, SyncEvery: 1, FS: m})
		if err != nil {
			e.Close()
			t.Fatalf("Begin: %v", err)
		}
		for {
			rec, ok, err := s.Step()
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if !ok {
				break
			}
			each(rec.Seq)
		}
		res, err := s.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return resultJSON(t, res)
	}

	plain := run(0, vfs.NewMem(), func(int64) {})
	m := vfs.NewMem()
	checkpoints := 0
	got := run(every, m, func(seq int64) {
		snaps, err := listSnapshots(m, "run")
		if err != nil {
			t.Fatal(err)
		}
		newest := seq / every * every
		if newest == 0 {
			if len(snaps) != 0 {
				t.Fatalf("event %d: %d snapshots before the first checkpoint", seq, len(snaps))
			}
			return
		}
		if len(snaps) != 1 || snaps[0].seq != newest {
			t.Fatalf("event %d: snapshots on disk %v, want only the one at %d", seq, snaps, newest)
		}
		if seq == newest {
			checkpoints++
		}
	})
	if got != plain {
		t.Fatalf("checkpointing changed the result\nplain  %s\npruned %s", plain, got)
	}
	if checkpoints < 10 {
		t.Fatalf("only %d checkpoints over the run; want >= 10 intervals exercised", checkpoints)
	}
}

// renameWatch records the injector's per-kind operation counts at the moment
// the first rename onto a snapshot lands.
type renameWatch struct {
	*vfs.Injector
	at map[vfs.FaultKind]int64
}

func (w *renameWatch) Rename(oldpath, newpath string) error {
	err := w.Injector.Rename(oldpath, newpath)
	if err == nil && w.at == nil && strings.HasPrefix(filepath.Base(newpath), snapPrefix) {
		w.at = w.Injector.Counts()
	}
	return err
}

// driveRenameFault runs a checkpointing session (a snapshot every 4 events,
// op-log syncs only at barriers) up to its first checkpoint, then runs the
// barrier a server would: one Sync, whose error it returns as firstErr, and
// a second that must succeed. Then it finishes the run.
func driveRenameFault(t *testing.T, l *item.List, fsys vfs.FS) (firstErr error, res *core.Result, err error) {
	t.Helper()
	e, err := core.NewEngine(l, newTestPolicy(t, "MoveToFront"))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cfg := Config{Dir: "d", Every: 4, SyncEvery: SyncManual, FS: fsys}
	s, err := Begin(e, NewRunMeta(l, "MoveToFront", 1, "test"), cfg)
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	for s.engine.EventSeq() < 4 {
		if _, _, err := s.Step(); err != nil {
			s.Close()
			return nil, nil, fmt.Errorf("step %d: %w", s.engine.EventSeq(), err)
		}
	}
	if firstErr = s.Sync(); firstErr != nil && !Recoverable(firstErr) {
		s.Close()
		return firstErr, nil, firstErr
	}
	if err := s.Sync(); err != nil {
		s.Close()
		return firstErr, nil, fmt.Errorf("second sync after the rename: %w", err)
	}
	res, err = s.Run()
	return firstErr, res, err
}

// TestCheckpointRenameFaultsAreRecoverable pins the window after a snapshot
// rename. One fault lands on the first operation of its kind after it: the
// directory sync that makes the rename durable, the delete that prunes the
// older snapshot, or the next fsync, which is the op log's barrier. Each
// must surface at most as an ordinary retryable Sync error, the run must
// finish byte-identical to a clean one, and a power loss at any filesystem
// op of the faulted run must recover byte-identically too.
func TestCheckpointRenameFaultsAreRecoverable(t *testing.T) {
	l := testList(t, 20)
	clean := &renameWatch{Injector: vfs.NewInjector(vfs.NewMem())}
	_, res, err := driveRenameFault(t, l, clean)
	if err != nil {
		t.Fatalf("clean drive: %v", err)
	}
	if clean.at == nil {
		t.Fatalf("clean drive never renamed a snapshot into place")
	}
	want := resultJSON(t, res)

	cases := []struct {
		name  string
		kind  vfs.FaultKind
		errno error
		// class of the first Sync after the rename: a checkpoint absorbs its
		// own faults, which only the barrier's fsync can surface.
		class ErrorClass
	}{
		{"syncdir-eio", vfs.FaultSyncDir, syscall.EIO, ClassNone},
		{"remove-eio", vfs.FaultRemove, syscall.EIO, ClassNone},
		{"fsync-enospc", vfs.FaultSync, syscall.ENOSPC, ClassDiskFull},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fault := vfs.Fault{Kind: tc.kind, Nth: clean.at[tc.kind] + 1, Err: tc.errno}
			m := vfs.NewMem()
			firstErr, res, err := driveRenameFault(t, l, vfs.NewInjector(m, fault))
			if err != nil {
				t.Fatalf("drive with %v: %v", fault, err)
			}
			if got := Classify(firstErr); got != tc.class {
				t.Fatalf("first Sync after the rename returned %v (%s), want class %s", firstErr, got, tc.class)
			}
			if got := resultJSON(t, res); got != want {
				t.Fatalf("result diverged from the clean run\n got %s\nwant %s", got, want)
			}

			total, recovered := m.Ops(), 0
			for i := int64(1); i <= total; i++ {
				m := vfs.NewMem()
				m.SetCrashPoint(i, vfs.CrashMode(i%3), 5+13*i)
				if _, _, err := driveRenameFault(t, l, vfs.NewInjector(m, fault)); !errors.Is(err, vfs.ErrCrashed) {
					t.Fatalf("crash point %d/%d: drive returned %v, want ErrCrashed", i, total, err)
				}
				m.Restart()
				cfg := Config{Dir: "d", Every: 4, FS: m}
				rec, err := Recover(l, cfg)
				if err != nil {
					if !tortureCrashOK(err) {
						t.Fatalf("crash point %d/%d (mode %s): recovery failed: %v", i, total, vfs.CrashMode(i%3), err)
					}
					continue // nothing durable yet: a fresh run is the honest restart
				}
				res, err := rec.Session.Run()
				if err != nil {
					t.Fatalf("crash point %d/%d: resumed run failed: %v", i, total, err)
				}
				if got := resultJSON(t, res); got != want {
					t.Fatalf("crash point %d/%d (mode %s): result diverged\n got %s\nwant %s",
						i, total, vfs.CrashMode(i%3), got, want)
				}
				recovered++
			}
			if recovered == 0 {
				t.Fatalf("all %d crash points predate durable state; recovery was never exercised", total)
			}
		})
	}
}

// TestWriterRollbackAndRetry exercises the writer's two recovery paths after
// a failed barrier: retry the sync (the buffered records must survive the
// failure, partial flush included), and roll back (the file must truncate to
// its last durable size even when a partial flush already landed).
func TestWriterRollbackAndRetry(t *testing.T) {
	mem := vfs.NewMem()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	inj := vfs.NewInjector(mem)
	w, err := Create(inj, "d/f.dvbp", KindOpLog)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	// Retry path: the write lands, the fsync fails, the retry syncs the same
	// bytes without duplicating them.
	w.Append([]byte("one"))
	inj.SetSticky(syscall.EIO, vfs.FaultSync)
	if err := w.Sync(); err == nil {
		t.Fatalf("sync succeeded under sticky EIO")
	} else if Classify(err) != ClassTransient {
		t.Fatalf("sync error class %s, want transient", Classify(err))
	}
	inj.ClearSticky()
	if err := w.Sync(); err != nil {
		t.Fatalf("retried sync: %v", err)
	}
	fd, err := ReadFile(inj, "d/f.dvbp")
	if err != nil || len(fd.Records) != 1 || string(fd.Records[0]) != "one" {
		t.Fatalf("after retry: records %q err %v", fd.Records, err)
	}

	// Rollback path: a partial flush (write ok, fsync refused) is truncated
	// away and the writer is back at its durable size.
	w.Append([]byte("two"))
	inj.SetSticky(syscall.ENOSPC, vfs.FaultSync)
	if err := w.Sync(); Classify(err) != ClassDiskFull {
		t.Fatalf("sync error class %s, want disk_full", Classify(err))
	}
	inj.ClearSticky()
	if err := w.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if w.Size() != w.Synced() {
		t.Fatalf("rollback left size %d != synced %d", w.Size(), w.Synced())
	}
	w.Append([]byte("three"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fd, err = ReadFile(inj, "d/f.dvbp")
	if err != nil || len(fd.Records) != 2 {
		t.Fatalf("after rollback: %d records err %v", len(fd.Records), err)
	}
	if string(fd.Records[0]) != "one" || string(fd.Records[1]) != "three" {
		t.Fatalf("rollback kept the wrong records: %q", fd.Records)
	}
	if fd.Torn != nil {
		t.Fatalf("rollback left a torn tail: %v", fd.Torn)
	}
}

// TestCreateSyncsParentDir pins the fix for the unsynced-directory-entry bug:
// a freshly created op log must survive a power loss immediately after Create
// returns, which requires the parent directory fsync.
func TestCreateSyncsParentDir(t *testing.T) {
	m := vfs.NewMem()
	if err := m.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(m, "d/ops.dvbp", KindOpLog, []byte("meta")); err != nil {
		t.Fatalf("Create: %v", err)
	}
	m.CrashNow(vfs.CrashLost)
	m.Restart()
	fd, err := ReadFile(m, "d/ops.dvbp")
	if err != nil {
		t.Fatalf("the created file did not survive a crash right after Create: %v", err)
	}
	if fd.Kind != KindOpLog || len(fd.Records) != 1 || fd.Torn != nil {
		t.Fatalf("surviving file is damaged: kind %d, %d records, torn %v", fd.Kind, len(fd.Records), fd.Torn)
	}
}

// TestRecoverSweepsOrphanTempFiles: a crash between CreateTemp and Rename
// leaves ".tmp-" orphans; Recover must delete them and say how many.
func TestRecoverSweepsOrphanTempFiles(t *testing.T) {
	l := testList(t, 40)
	dir := t.TempDir()
	referenceRun(t, l, "MoveToFront", dir, 16, nil)
	for _, name := range []string{"snap-0000000000000016.dvbp.tmp-1", "snap-0000000000000032.dvbp.tmp-9"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := Recover(l, Config{Dir: dir, Every: 16})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Session.Close()
	if rec.SweptTemp != 2 {
		t.Fatalf("swept %d temp orphans, want 2", rec.SweptTemp)
	}
	entries, err := vfs.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("orphan %s survived recovery", e.Name())
		}
	}
}

// TestErrorClassification pins the taxonomy the server's fail/degrade/retry
// state machine dispatches on (satellite of DESIGN.md §15).
func TestErrorClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want ErrorClass
	}{
		{"nil", nil, ClassNone},
		{"corruption", corrupt("bad record"), ClassCorruption},
		{"corruption-wrapping-errno", &CorruptionError{Reason: "x", Err: syscall.ENOSPC}, ClassCorruption},
		{"corruption-wrapped", fmt.Errorf("recovering: %w", corrupt("bad")), ClassCorruption},
		{"enospc", ioErr("write", "f", syscall.ENOSPC), ClassDiskFull},
		{"edquot", ioErr("sync", "f", syscall.EDQUOT), ClassDiskFull},
		{"eio", ioErr("sync", "f", syscall.EIO), ClassTransient},
		{"open-error", ioErr("open", "f", errors.New("weird")), ClassTransient},
		{"simulated-crash", ioErr("write", "f", vfs.ErrCrashed), ClassFatal},
		{"naked", errors.New("who knows"), ClassFatal},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %s, want %s", tc.name, got, tc.want)
		}
		wantRec := tc.want == ClassDiskFull || tc.want == ClassTransient
		if got := Recoverable(tc.err); got != wantRec {
			t.Errorf("%s: Recoverable = %v, want %v", tc.name, got, wantRec)
		}
	}
}
