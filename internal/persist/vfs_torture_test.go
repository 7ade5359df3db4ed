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
// the middle of a checkpoint rename or a WAL compaction swap.

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

// staticTortureCfg is the session shape shared by the static sweep: automatic
// checkpoints, WAL compaction behind them, frequent fsync batching so crash
// points land between records as well as inside batches.
func staticTortureCfg(fsys vfs.FS) Config {
	return Config{Dir: "run", Every: 8, SyncEvery: 2, FS: fsys, Compact: true}
}

// runStaticTorture drives one fresh static run to completion on fsys.
func runStaticTorture(t *testing.T, l *item.List, fsys vfs.FS) (*core.Result, error) {
	t.Helper()
	e, err := core.NewEngine(l, newTestPolicy(t, "MoveToFront"), faultOpts()...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := Begin(e, NewRunMeta(l, "MoveToFront", 1, "test"), staticTortureCfg(fsys))
	if err != nil {
		e.Close()
		return nil, err
	}
	return s.Run()
}

// TestDiskTortureCrashPointsStatic records how many mutating FS operations an
// uninterrupted compacting run performs, then replays the run once per
// operation index with a simulated power loss at exactly that operation —
// cycling lost/flushed/torn crash modes — recovers, finishes, and demands the
// byte-identical result every single time.
func TestDiskTortureCrashPointsStatic(t *testing.T) {
	l := testList(t, 40)

	base := vfs.NewMem()
	res, err := runStaticTorture(t, l, base)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	want := resultJSON(t, res)
	total := base.Ops()
	if total < 50 {
		t.Fatalf("baseline run performed only %d mutating FS ops — the sweep would prove nothing", total)
	}

	fallbacks, recovered := 0, 0
	for i := int64(1); i <= total; i++ {
		m := vfs.NewMem()
		m.SetCrashPoint(i, vfs.CrashMode(i%3), 1+7*i)
		_, err := runStaticTorture(t, l, m)
		if err == nil {
			t.Fatalf("crash point %d/%d never fired", i, total)
		}
		if !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("crash point %d: run died of %v, want ErrCrashed", i, err)
		}
		if !m.Crashed() {
			t.Fatalf("crash point %d: error without a crash", i)
		}
		m.Restart()

		var got string
		rec, rerr := Recover(l, staticTortureCfg(m), faultOpts()...)
		if rerr != nil {
			if !tortureCrashOK(rerr) {
				t.Fatalf("crash point %d/%d (mode %s): recovery failed: %v", i, total, vfs.CrashMode(i%3), rerr)
			}
			// Nothing durable survived; a fresh run is the honest restart.
			res, err := runStaticTorture(t, l, m)
			if err != nil {
				t.Fatalf("crash point %d: fresh restart failed: %v", i, err)
			}
			got = resultJSON(t, res)
			fallbacks++
		} else {
			res, err := rec.Session.Run()
			if err != nil {
				t.Fatalf("crash point %d/%d: resumed run failed: %v", i, total, err)
			}
			got = resultJSON(t, res)
			recovered++
		}
		if got != want {
			t.Fatalf("crash point %d/%d (mode %s): result diverged\n got %s\nwant %s",
				i, total, vfs.CrashMode(i%3), got, want)
		}
	}
	if recovered == 0 {
		t.Fatalf("all %d crash points fell back to fresh runs — recovery was never exercised", total)
	}
	t.Logf("swept %d crash points: %d recovered, %d legitimate fresh restarts", total, recovered, fallbacks)
}

// dynTortureMeta is the dynamic sweep's run identity.
func dynTortureMeta() RunMeta { return NewDynamicRunMeta(2, "firstfit", 11, "") }

// driveDynamicTorture runs the tenant-shaped two-barrier protocol over fsys:
// op durable (barrier 1) before the engine steps, WAL durable (barrier 2)
// before the next item, an advance every third item, and a WAL compaction
// behind every checkpoint. fresh=false
// resumes from whatever the directory durably holds, exactly like the
// server's recoverTenant: rebuild the list from the op log, replay the WAL,
// re-run the clock to the last durable advance, then feed the remaining
// suffix of items (identified positionally — the op log's item count is the
// resume cursor).
func driveDynamicTorture(t *testing.T, items []item.Item, fsys vfs.FS, fresh bool) (*core.Result, error) {
	t.Helper()
	const dir = "tenant"
	path := filepath.Join(dir, "ops.dvbp")
	meta := dynTortureMeta()
	cfg := Config{Dir: dir, Label: "dyn", Every: 8, SyncEvery: 2, FS: fsys, Compact: true}

	var s *Session
	var ops *Writer
	from := 0
	if fresh {
		if err := vfs.OrOS(fsys).MkdirAll(dir, 0o755); err != nil {
			return nil, ioErr("mkdir", dir, err)
		}
		var err error
		ops, err = CreateOpLog(fsys, path, meta, SyncManual)
		if err != nil {
			return nil, err
		}
		e, err := core.NewEngine(item.NewList(2), newTestPolicy(t, "firstfit"), core.WithDynamicArrivals())
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		s, err = Begin(e, meta, cfg)
		if err != nil {
			e.Close()
			ops.Discard()
			return nil, err
		}
	} else {
		logged, err := ReadOpLog(fsys, path, "dyn")
		if err != nil {
			return nil, err
		}
		if logged.Meta != meta {
			t.Fatalf("op log identity drifted: %+v", logged.Meta)
		}
		rec, err := Recover(logged.List, cfg, core.WithDynamicArrivals())
		if err != nil {
			if logged.List.Len() > 0 {
				t.Fatalf("op log holds %d items but WAL recovery failed: %v", logged.List.Len(), err)
			}
			return nil, err
		}
		s = rec.Session
		for {
			tt, ok := s.Engine().PeekTime()
			if !ok || tt > logged.MaxAdvance {
				break
			}
			if _, ok, err := s.Step(); err != nil {
				s.Close()
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := s.Sync(); err != nil {
			s.Close()
			return nil, err
		}
		ops, err = ReopenOpLog(fsys, path, logged.ValidSize, SyncManual)
		if err != nil {
			s.Close()
			return nil, err
		}
		from = logged.List.Len()
	}

	fail := func(err error) (*core.Result, error) {
		s.Close()
		ops.Discard()
		return nil, err
	}
	for i := from; i < len(items); i++ {
		it := items[i]
		if err := ops.Append(AppendItemOp(nil, it.Arrival, it.Departure, it.Size)); err != nil {
			return fail(err)
		}
		adv := i%3 == 2
		if adv {
			if err := ops.Append(AppendAdvanceOp(nil, it.Arrival)); err != nil {
				return fail(err)
			}
		}
		if err := ops.Sync(); err != nil { // barrier 1: admission durable
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
			for {
				tt, ok := s.Engine().PeekTime()
				if !ok || tt > it.Arrival {
					break
				}
				if _, ok, err := s.Step(); err != nil {
					return fail(err)
				} else if !ok {
					break
				}
			}
		}
		if err := s.Sync(); err != nil { // barrier 2: events durable
			return fail(err)
		}
	}
	if err := ops.Close(); err != nil {
		s.Close()
		return nil, err
	}
	return s.Run()
}

// TestDiskTortureCrashPointsDynamic is the dynamic-run (multi-tenant-shaped)
// crash-point sweep: the two-barrier op-log + WAL protocol, with WAL
// compaction active, killed at every FS operation in turn and resumed
// through the same recovery the server uses. The final packing must come out
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

// TestCompactionBoundsWALSize proves the point of compaction: over many
// snapshot intervals, a compacting session's WAL stays bounded by the
// interval while the uncompacted twin grows with the run — and both reach the
// same result.
func TestCompactionBoundsWALSize(t *testing.T) {
	l := testList(t, 80)
	const every = 8

	run := func(compact bool) (string, int64, IOStats) {
		m := vfs.NewMem()
		e, err := core.NewEngine(l, newTestPolicy(t, "MoveToFront"), faultOpts()...)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		s, err := Begin(e, NewRunMeta(l, "MoveToFront", 1, "test"),
			Config{Dir: "run", Every: every, SyncEvery: 1, FS: m, Compact: compact})
		if err != nil {
			e.Close()
			t.Fatalf("Begin: %v", err)
		}
		maxWAL := s.WALSize()
		for {
			_, ok, err := s.Step()
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if sz := s.WALSize(); sz > maxWAL {
				maxWAL = sz
			}
			if !ok {
				break
			}
		}
		st := s.TakeIOStats()
		res, err := s.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return resultJSON(t, res), maxWAL, st
	}

	plainRes, plainMax, _ := run(false)
	compactRes, compactMax, st := run(true)
	if plainRes != compactRes {
		t.Fatalf("compaction changed the result\nplain   %s\ncompact %s", plainRes, compactRes)
	}
	if st.Compactions < 10 {
		t.Fatalf("only %d compactions over the run; want >= 10 snapshot intervals exercised", st.Compactions)
	}
	if st.ReclaimedBytes <= 0 {
		t.Fatalf("compaction reclaimed %d bytes", st.ReclaimedBytes)
	}
	if compactMax*3 > plainMax {
		t.Fatalf("compacted WAL peak %d is not < 1/3 of uncompacted peak %d", compactMax, plainMax)
	}
}

// TestRecoverCompactedWALRefusesScratch pins the one fallback compaction
// forbids: with the WAL prefix gone, a from-scratch replay cannot exist, so
// recovery with every snapshot deleted must fail loudly instead of silently
// rebuilding a different history.
func TestRecoverCompactedWALRefusesScratch(t *testing.T) {
	l := testList(t, 80)
	m := vfs.NewMem()
	e, err := core.NewEngine(l, newTestPolicy(t, "MoveToFront"), faultOpts()...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cfg := staticTortureCfg(m)
	s, err := Begin(e, NewRunMeta(l, "MoveToFront", 1, "test"), cfg)
	if err != nil {
		e.Close()
		t.Fatalf("Begin: %v", err)
	}
	for i := 0; i < 40; i++ {
		if _, ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	if s.walBase == 0 {
		t.Fatalf("run never compacted; the test is vacuous")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snaps, err := listSnapshots(m, cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range snaps {
		if err := m.Remove(filepath.Join(cfg.Dir, sf.name)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = Recover(l, cfg, faultOpts()...)
	var ce *CorruptionError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "compacted") {
		t.Fatalf("recovery of a compacted WAL without snapshots returned %v; want a compaction corruption error", err)
	}
}

// renameWatch records the injector's per-kind operation counts at the moment
// the first rename onto a WAL lands: the first compaction's swap.
type renameWatch struct {
	*vfs.Injector
	at map[vfs.FaultKind]int64
}

func (w *renameWatch) Rename(oldpath, newpath string) error {
	err := w.Injector.Rename(oldpath, newpath)
	if err == nil && w.at == nil && filepath.Base(newpath) == walFile {
		w.at = w.Injector.Counts()
	}
	return err
}

// driveSwapFault runs a compacting session (a snapshot every 4 events, WAL
// syncs only at checkpoints and barriers) up to its first compaction, then
// runs the barrier a server would: one Sync, whose error it returns as
// swapErr, and a second that must succeed. Then it finishes the run.
func driveSwapFault(t *testing.T, l *item.List, fsys vfs.FS) (swapErr error, res *core.Result, err error) {
	t.Helper()
	e, err := core.NewEngine(l, newTestPolicy(t, "MoveToFront"), faultOpts()...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cfg := Config{Dir: "d", Every: 4, SyncEvery: SyncManual, FS: fsys, Compact: true}
	s, err := Begin(e, NewRunMeta(l, "MoveToFront", 1, "test"), cfg)
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	for s.walBase == 0 {
		_, ok, err := s.Step()
		if err == nil && !ok {
			err = errors.New("the run never compacted")
		}
		if err != nil {
			s.Close()
			return nil, nil, fmt.Errorf("step %d: %w", s.engine.EventSeq(), err)
		}
	}
	if swapErr = s.Sync(); swapErr != nil && !Recoverable(swapErr) {
		s.Close()
		return swapErr, nil, swapErr
	}
	if err := s.Sync(); err != nil {
		s.Close()
		return swapErr, nil, fmt.Errorf("second sync after the swap: %w", err)
	}
	res, err = s.Run()
	return swapErr, res, err
}

// TestCompactionSwapFaultsAreRecoverable pins the window between a WAL
// compaction's rename and the session's next durable write. One fault lands
// on the first operation of its kind after the swap: the directory sync
// that makes the rename durable, the open of the new WAL, or its first
// fsync. Each must surface at most as an ordinary retryable Sync error, the
// run must finish byte-identical to a clean one, and a power loss at any
// filesystem op of the faulted run must recover byte-identically too.
func TestCompactionSwapFaultsAreRecoverable(t *testing.T) {
	l := testList(t, 20)
	clean := &renameWatch{Injector: vfs.NewInjector(vfs.NewMem())}
	_, res, err := driveSwapFault(t, l, clean)
	if err != nil {
		t.Fatalf("clean drive: %v", err)
	}
	if clean.at == nil {
		t.Fatalf("clean drive never renamed a WAL into place")
	}
	want := resultJSON(t, res)

	cases := []struct {
		name  string
		kind  vfs.FaultKind
		errno error
		// class of the first Sync after the swap: the directory sync fault
		// is absorbed by the compaction and retried inside that Sync.
		class ErrorClass
	}{
		{"syncdir-eio", vfs.FaultSyncDir, syscall.EIO, ClassNone},
		{"open-eio", vfs.FaultOpen, syscall.EIO, ClassTransient},
		{"fsync-enospc", vfs.FaultSync, syscall.ENOSPC, ClassDiskFull},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fault := vfs.Fault{Kind: tc.kind, Nth: clean.at[tc.kind] + 1, Err: tc.errno}
			m := vfs.NewMem()
			swapErr, res, err := driveSwapFault(t, l, vfs.NewInjector(m, fault))
			if err != nil {
				t.Fatalf("drive with %v: %v", fault, err)
			}
			if got := Classify(swapErr); got != tc.class {
				t.Fatalf("first Sync after the swap returned %v (%s), want class %s", swapErr, got, tc.class)
			}
			if got := resultJSON(t, res); got != want {
				t.Fatalf("result diverged from the clean run\n got %s\nwant %s", got, want)
			}

			total, recovered := m.Ops(), 0
			for i := int64(1); i <= total; i++ {
				m := vfs.NewMem()
				m.SetCrashPoint(i, vfs.CrashMode(i%3), 5+13*i)
				if _, _, err := driveSwapFault(t, l, vfs.NewInjector(m, fault)); !errors.Is(err, vfs.ErrCrashed) {
					t.Fatalf("crash point %d/%d: drive returned %v, want ErrCrashed", i, total, err)
				}
				m.Restart()
				cfg := Config{Dir: "d", Every: 4, FS: m, Compact: true}
				rec, err := Recover(l, cfg, faultOpts()...)
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
	w, err := Create(inj, "d/f.dvbp", KindWAL, SyncManual)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	// Retry path: the write lands, the fsync fails, the retry syncs the same
	// bytes without duplicating them.
	if err := w.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
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
	if err := w.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
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
	if err := w.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
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
// a freshly created WAL must survive a power loss immediately after Create
// returns, which requires the parent directory fsync.
func TestCreateSyncsParentDir(t *testing.T) {
	m := vfs.NewMem()
	if err := m.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := Create(m, "d/wal.dvbp", KindWAL, 0)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	m.CrashNow(vfs.CrashLost)
	m.Restart()
	fd, err := ReadFile(m, "d/wal.dvbp")
	if err != nil {
		t.Fatalf("the created file did not survive a crash right after Create: %v", err)
	}
	if fd.Kind != KindWAL || len(fd.Records) != 0 || fd.Torn != nil {
		t.Fatalf("surviving file is damaged: kind %d, %d records, torn %v", fd.Kind, len(fd.Records), fd.Torn)
	}
	w.Discard()
}

// TestRecoverSweepsOrphanTempFiles: a crash between CreateTemp and Rename
// leaves ".tmp-" orphans; Recover must delete them and say how many.
func TestRecoverSweepsOrphanTempFiles(t *testing.T) {
	l := testList(t, 40)
	dir := t.TempDir()
	referenceRun(t, l, "MoveToFront", dir, 16)
	for _, name := range []string{"snap-0000000000000016.dvbp.tmp-1", "wal.dvbp.tmp-9"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := Recover(l, Config{Dir: dir, Every: 16}, faultOpts()...)
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
		{"discarded", errDiscarded, ClassFatal},
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
