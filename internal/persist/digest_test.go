package persist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vfs"
)

// rewriteRecords rewrites the persist file at path with its records passed
// through edit, each re-framed with a valid checksum, so the damage reaches
// the layers above the record format.
func rewriteRecords(t *testing.T, path string, edit func(recs [][]byte) [][]byte) {
	t.Helper()
	fd, err := ReadFile(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	out := appendHeader(nil, fd.Kind)
	for _, r := range edit(fd.Records) {
		out = appendRecord(out, r)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// wantCorruption fails unless err is a *CorruptionError whose reason says
// what.
func wantCorruption(t *testing.T, err error, what string) {
	t.Helper()
	var ce *CorruptionError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, what) {
		t.Fatalf("got %v, want a corruption error about %q", err, what)
	}
}

// dynamicRun feeds items to a fresh dynamic session in dir through the
// tenant protocol (dynFeed) and closes it, leaving its final mark.
func dynamicRun(t *testing.T, dir, policy string, seed int64, every int64, items []item.Item) {
	t.Helper()
	e, err := core.NewEngine(item.NewList(2), newTestPolicy(t, policy), core.WithDynamicArrivals())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := Begin(e, NewDynamicRunMeta(2, policy, seed, ""), Config{Dir: dir, Every: every, SyncEvery: SyncManual})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	for _, it := range items {
		dynFeed(t, s, it.Arrival, it.Departure, it.Size)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// recoverDynamic reads the op log in dir and recovers the run it holds.
func recoverDynamic(t *testing.T, dir string) (*Recovery, error) {
	t.Helper()
	logged, err := ReadOpLog(nil, filepath.Join(dir, opsFile), "dyn")
	if err != nil {
		t.Fatalf("ReadOpLog: %v", err)
	}
	return Recover(logged.List, Config{Dir: dir, Label: "dyn", SyncEvery: SyncManual}, core.WithDynamicArrivals())
}

// TestRecoverAlteredMarkDiverges: a mark whose digest was altered, and
// re-framed so its checksum holds, fails recovery as a replay divergence —
// in a static run's log and in a dynamic run's.
func TestRecoverAlteredMarkDiverges(t *testing.T) {
	alter := func(recs [][]byte) [][]byte {
		for i := len(recs) - 1; i > 0; i-- {
			if OpKind(recs[i][0]) == OpMark {
				recs[i] = append([]byte(nil), recs[i]...)
				recs[i][len(recs[i])-1] ^= 0x10
				return recs
			}
		}
		t.Fatal("the log holds no mark")
		return nil
	}

	l := testList(t, 40)
	dir := t.TempDir()
	referenceRun(t, l, "FirstFit", dir, 0)
	rewriteRecords(t, filepath.Join(dir, opsFile), alter)
	_, err := Recover(l, Config{Dir: dir}, faultOpts()...)
	wantCorruption(t, err, "replay divergence")

	dir = t.TempDir()
	dynamicRun(t, dir, "firstfit", 1, 0, dynItems(30))
	rewriteRecords(t, filepath.Join(dir, opsFile), alter)
	_, err = recoverDynamic(t, dir)
	wantCorruption(t, err, "replay divergence")
}

// TestRecoverDynamicUnderOtherSeedDiverges: a dynamic RandomFit log whose
// meta claims another policy seed re-steps to other placements, which the
// marks refuse as a replay divergence. The snapshot, whose meta still names
// the original seed, is skipped as another run's.
func TestRecoverDynamicUnderOtherSeedDiverges(t *testing.T) {
	dir := t.TempDir()
	dynamicRun(t, dir, "randomfit", 5, 16, dynItems(40))
	rewriteRecords(t, filepath.Join(dir, opsFile), func(recs [][]byte) [][]byte {
		recs[0] = encodeMeta(NewDynamicRunMeta(2, "randomfit", 6, ""))
		return recs
	})
	_, err := recoverDynamic(t, dir)
	wantCorruption(t, err, "replay divergence")
}

// TestRecoverRefusesMarkPastEnd: a mark past the position the log pins is
// corruption — past a dynamic run's last logged input, and past the end of
// a static run's event stream.
func TestRecoverRefusesMarkPastEnd(t *testing.T) {
	dir := t.TempDir()
	dynamicRun(t, dir, "firstfit", 1, 0, dynItems(20))
	rec, err := recoverDynamic(t, dir)
	if err != nil {
		t.Fatalf("clean recovery: %v", err)
	}
	end := rec.Session.Engine().EventSeq()
	if err := rec.Session.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteRecords(t, filepath.Join(dir, opsFile), func(recs [][]byte) [][]byte {
		return append(recs, appendMark(nil, end+1, 0))
	})
	_, err = recoverDynamic(t, dir)
	wantCorruption(t, err, "past the run's end position")

	l := testList(t, 20)
	dir = t.TempDir()
	referenceRun(t, l, "FirstFit", dir, 0)
	rewriteRecords(t, filepath.Join(dir, opsFile), func(recs [][]byte) [][]byte {
		return append(recs, appendMark(nil, 1<<20, 0))
	})
	_, err = Recover(l, Config{Dir: dir}, faultOpts()...)
	wantCorruption(t, err, "past the run's end position")
}

// TestRecoverSkipsSnapshotWithoutDigest: a snapshot that carries no event
// digest — one written before digests existed — is skipped and reported,
// and recovery re-steps from the start instead.
func TestRecoverSkipsSnapshotWithoutDigest(t *testing.T) {
	l := testList(t, 40)
	dir := t.TempDir()
	want, _ := referenceRun(t, l, "MoveToFront", dir, 16)
	snaps, err := listSnapshots(vfs.OS{}, dir)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v, %v; want exactly one", snaps, err)
	}
	rewriteRecords(t, filepath.Join(dir, snaps[0].name), func(recs [][]byte) [][]byte {
		return append(recs[:1:1], recs[2:]...) // the snapshot file as written before digests
	})
	rec, err := Recover(l, Config{Dir: dir, Every: 16}, faultOpts()...)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.SnapshotSeq != 0 || len(rec.Corruptions) != 1 || !strings.Contains(rec.Corruptions[0].Error(), "no event digest") {
		t.Fatalf("restored from %d with corruptions %v; want the digest-less snapshot skipped", rec.SnapshotSeq, rec.Corruptions)
	}
	res, err := rec.Session.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Fatalf("result diverged\n got %s\nwant %s", got, want)
	}
}

// TestRecoverParentStaticDirNamesMissingLog: a static checkpoint directory
// written before the op log replaced the WAL (testdata/parent-static: a
// wal.dvbp and snapshots) has no ops.dvbp, and recovery refuses it with an
// error that names the missing log.
func TestRecoverParentStaticDirNamesMissingLog(t *testing.T) {
	dir := t.TempDir()
	copyRun(t, filepath.Join("testdata", "parent-static"), dir)
	_, err := Recover(testList(t, 24), Config{Dir: dir, Every: 16})
	if err == nil || !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), opsFile) {
		t.Fatalf("Recover on a parent-era static directory returned %v; want a missing-%s error", err, opsFile)
	}
}
