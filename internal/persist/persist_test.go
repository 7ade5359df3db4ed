package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/faults"
	"dvbp/internal/item"
	"dvbp/internal/metrics"
	"dvbp/internal/vector"
	"dvbp/internal/vfs"
	"dvbp/internal/workload"
)

// testList builds a deterministic instance shared by the persistence tests.
func testList(t *testing.T, n int) *item.List {
	t.Helper()
	cfg := workload.PaperDefaults(3, 40)
	cfg.N = n
	l, err := workload.Uniform(cfg, 4242)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return l
}

// faultOpts is the engine configuration the replay tests run under:
// crashes, retries, capped bins, and an admission queue, so every event class
// shows up in the digest. Such a run never checkpoints (core.Engine.Snapshot
// refuses it), so it persists with Every 0 and recovers by replay; the
// snapshot tests run fault-free.
func faultOpts() []core.Option {
	return []core.Option{
		core.WithFaults(faults.MTBF{Mean: 30, Seed: 7}, faults.Fixed{Wait: 2.5}),
		core.WithMaxBins(4),
		core.WithAdmissionQueue(8),
	}
}

func newTestPolicy(t *testing.T, name string) core.Policy {
	t.Helper()
	p, err := core.NewPolicy(name, 1)
	if err != nil {
		t.Fatalf("NewPolicy(%s): %v", name, err)
	}
	return p
}

func resultJSON(t *testing.T, r *core.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// --- record format ---

func TestWriterReadFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.dvbp")
	w, err := Create(nil, path, KindOpLog)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-gamma"), {0, 1, 2, 255}}
	for _, p := range payloads {
		w.Append(p)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fd, err := ReadFile(nil, path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if fd.Kind != KindOpLog || fd.Torn != nil {
		t.Fatalf("kind=%d torn=%v", fd.Kind, fd.Torn)
	}
	if fd.ValidSize != fd.Size || fd.Size != w.Size() {
		t.Fatalf("sizes: valid=%d size=%d writer=%d", fd.ValidSize, fd.Size, w.Size())
	}
	if len(fd.Records) != len(payloads) {
		t.Fatalf("got %d records, want %d", len(fd.Records), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(fd.Records[i], p) {
			t.Fatalf("record %d: got %q want %q", i, fd.Records[i], p)
		}
	}
}

func TestReadFileTruncatesDamagedTail(t *testing.T) {
	write := func(t *testing.T) (string, *FileData) {
		path := filepath.Join(t.TempDir(), "dmg.dvbp")
		w, err := Create(nil, path, KindSnapshot, []byte("one"), []byte("two"), []byte("three"))
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		fd, err := ReadFile(nil, path)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		return path, fd
	}

	cases := []struct {
		name    string
		damage  func(t *testing.T, path string, fd *FileData)
		survive int
		reason  string
	}{
		{
			name: "torn frame",
			damage: func(t *testing.T, path string, fd *FileData) {
				appendBytes(t, path, []byte{1, 2, 3})
			},
			survive: 3, reason: "torn frame",
		},
		{
			name: "torn record",
			damage: func(t *testing.T, path string, fd *FileData) {
				truncate(t, path, fd.Size-2)
			},
			survive: 2, reason: "torn record",
		},
		{
			name: "bit flip in payload",
			damage: func(t *testing.T, path string, fd *FileData) {
				flipByte(t, path, fd.Offsets[1]+frameSize)
			},
			survive: 1, reason: "checksum mismatch",
		},
		{
			name: "absurd length field",
			damage: func(t *testing.T, path string, fd *FileData) {
				writeAt(t, path, fd.Offsets[2], []byte{0xFF, 0xFF, 0xFF, 0xFF})
			},
			survive: 2, reason: "exceeds limit",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, clean := write(t)
			tc.damage(t, path, clean)
			fd, err := ReadFile(nil, path)
			if err != nil {
				t.Fatalf("damaged records must not be fatal: %v", err)
			}
			if len(fd.Records) != tc.survive {
				t.Fatalf("%d records survived, want %d", len(fd.Records), tc.survive)
			}
			if fd.Torn == nil || !strings.Contains(fd.Torn.Reason, tc.reason) {
				t.Fatalf("Torn = %v, want reason containing %q", fd.Torn, tc.reason)
			}
			if fd.ValidSize >= fd.Size && tc.name != "bit flip in payload" && tc.name != "absurd length field" {
				t.Fatalf("ValidSize %d not below Size %d", fd.ValidSize, fd.Size)
			}
			if fd.Torn.Path != path || fd.Torn.Offset < headerSize {
				t.Fatalf("Torn lacks location: %+v", fd.Torn)
			}
		})
	}
}

func TestReadFileRejectsDamagedHeader(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", magic[:4]},
		{"bad magic", bytes.Repeat([]byte{'x'}, headerSize)},
		{"bad version", func() []byte {
			h := appendHeader(nil, KindOpLog)
			h[8] = 99
			return h
		}()},
		{"bad kind", func() []byte {
			h := appendHeader(nil, KindOpLog)
			h[12] = 77
			return h
		}()},
		{"retired WAL kind", func() []byte {
			h := appendHeader(nil, KindOpLog)
			h[12] = 1
			return h
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-"))
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ReadFile(nil, path)
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("want *CorruptionError, got %v", err)
			}
			if ce.Path != path {
				t.Fatalf("error lacks path: %+v", ce)
			}
		})
	}
}

func TestCorruptionErrorFormat(t *testing.T) {
	ce := &CorruptionError{Path: "/x/ops.dvbp", Offset: 40, Record: 2, Reason: "checksum mismatch"}
	for _, want := range []string{"/x/ops.dvbp", "40", "checksum mismatch"} {
		if !strings.Contains(ce.Error(), want) {
			t.Fatalf("Error() = %q lacks %q", ce.Error(), want)
		}
	}
}

// --- event digest ---

// TestEventDigestCoversEveryField pins what the digest marks can detect: a
// change to any field of any committed event changes the event's record
// bytes, and with them the rolling digest from that event on.
func TestEventDigestCoversEveryField(t *testing.T) {
	base := core.EventRecord{Seq: 4, Class: core.EventRetry, Time: 1e17, ItemID: 1 << 30, BinID: -1, Placed: true}
	variants := []func(r *core.EventRecord){
		func(r *core.EventRecord) { r.Seq++ },
		func(r *core.EventRecord) { r.Class = core.EventArrival },
		func(r *core.EventRecord) { r.Time = math.Nextafter(r.Time, 0) },
		func(r *core.EventRecord) { r.ItemID-- },
		func(r *core.EventRecord) { r.BinID = 0 },
		func(r *core.EventRecord) { r.Placed = false },
		func(r *core.EventRecord) { r.Opened = true },
	}
	prefix := core.EventRecord{Seq: 3, Class: core.EventDeparture, Time: 3.25, ItemID: 17, BinID: 4}
	var want eventDigest
	want.fold(prefix)
	want.fold(base)
	for i, mutate := range variants {
		ev := base
		mutate(&ev)
		var got eventDigest
		got.fold(prefix)
		got.fold(ev)
		if got.sum == want.sum {
			t.Fatalf("variant %d (%+v) folds to the same digest as %+v", i, ev, base)
		}
	}
	var again eventDigest
	again.fold(prefix)
	again.fold(base)
	if again.sum != want.sum {
		t.Fatalf("the digest is not a function of the events: %016x vs %016x", again.sum, want.sum)
	}
}

// --- run meta ---

func TestRunMetaHashAndCheck(t *testing.T) {
	l := testList(t, 30)
	meta := NewRunMeta(l, "FirstFit", 1, "mtbf(30)")
	if err := meta.check(l); err != nil {
		t.Fatalf("check against own list: %v", err)
	}
	other := l.Clone()
	other.Items[7].Size[0] += 1e-9
	if err := meta.check(other); err == nil {
		t.Fatal("check accepted a perturbed workload")
	}
	short := testList(t, 29)
	if err := meta.check(short); err == nil {
		t.Fatal("check accepted a different length")
	}
}

// --- snapshot codec ---

func TestSnapshotCodecRoundTrip(t *testing.T) {
	l := testList(t, 60)
	e, err := core.NewEngine(l, newTestPolicy(t, "MoveToFront"))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	for i := 0; i < 45; i++ {
		if _, ok, err := e.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	payload := EncodeSnapshot(snap)
	got, err := DecodeSnapshot(payload)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("snapshot round trip differs:\n got %+v\nwant %+v", got, snap)
	}
}

func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	l := testList(t, 40)
	e, err := core.NewEngine(l, newTestPolicy(t, "FirstFit"))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	for i := 0; i < 25; i++ {
		if _, ok, err := e.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	payload := EncodeSnapshot(snap)
	// A version 2 payload, written before the snapshot shed its fault,
	// queue and migration sections, is refused as an unsupported version.
	v2 := append([]byte{2}, payload[1:]...)
	if _, err := DecodeSnapshot(v2); err == nil || !strings.Contains(err.Error(), "unsupported snapshot codec version 2") {
		t.Fatalf("version 2 payload: err = %v, want an unsupported-version refusal", err)
	}
	// Truncations at every prefix and single-byte flips throughout must all
	// come back as structured corruption, never a panic or silent success of
	// an inconsistent snapshot. (A flip may legitimately decode — e.g. in a
	// float — so only the "no panic, structured error" half is asserted for
	// flips; truncations must always fail.)
	for i := 0; i < len(payload); i++ {
		if _, err := DecodeSnapshot(payload[:i]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", i)
		} else {
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("truncation at %d: want *CorruptionError, got %T", i, err)
			}
		}
	}
	for i := 0; i < len(payload); i++ {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0x40
		if _, err := DecodeSnapshot(mut); err != nil {
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("flip at %d: want *CorruptionError, got %T", i, err)
			}
		}
	}
}

// --- session + recovery ---

// newCollector returns a metrics collector on a Manual clock, whose
// snapshot is a pure function of the events it observed.
func newCollector() *metrics.Collector {
	return metrics.NewCollector(metrics.WithClock(&metrics.Manual{}))
}

// referenceRun completes an uninterrupted persisted run under opts, with a
// digest mark after every event and a checkpoint every `every` events, and
// returns its final result and metrics JSON.
func referenceRun(t *testing.T, l *item.List, policy string, dir string, every int64, opts []core.Option) (string, string) {
	t.Helper()
	col := newCollector()
	e, err := core.NewEngine(l, newTestPolicy(t, policy), append(opts, core.WithObserver(col))...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := Begin(e, NewRunMeta(l, policy, 1, "test"), Config{Dir: dir, Every: every, SyncEvery: 1})
	if err != nil {
		e.Close()
		t.Fatalf("Begin: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return resultJSON(t, res), col.Snapshot().JSON()
}

// TestSessionRecoverResume kills a persisted run after k events and
// recovers it. A faulty run takes no snapshots, so recovery re-steps it
// from event 0 and a collector attached to the recovered run sees every
// event: result and metrics both match the uninterrupted run's. A
// fault-free run restores its newest snapshot and re-steps only the rest.
func TestSessionRecoverResume(t *testing.T) {
	l := testList(t, 80)
	const policy = "MoveToFront"
	for _, tc := range tortureRuns(16) {
		wantRes, wantMet := referenceRun(t, l, policy, t.TempDir(), tc.every, tc.opts)
		for _, crashAfter := range []int64{0, 1, 15, 16, 17, 40, 97} {
			dir := t.TempDir()
			e, err := core.NewEngine(l, newTestPolicy(t, policy), append(tc.opts, core.WithObserver(newCollector()))...)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			cfg := Config{Dir: dir, Every: tc.every, SyncEvery: 1}
			s, err := Begin(e, NewRunMeta(l, policy, 1, "test"), cfg)
			if err != nil {
				e.Close()
				t.Fatalf("Begin: %v", err)
			}
			for i := int64(0); i < crashAfter; i++ {
				if _, ok, err := s.Step(); err != nil || !ok {
					t.Fatalf("%s crashAfter=%d step %d: ok=%v err=%v", tc.name, crashAfter, i, ok, err)
				}
			}
			// Simulate a hard kill: drop the session on the floor, releasing
			// only the descriptor and the policy guard. Nothing is flushed or
			// synced beyond what already happened.
			s.log.f.Close()
			s.engine.Close()

			col := newCollector()
			rec, err := Recover(l, cfg, append(tc.opts, core.WithObserver(col))...)
			if err != nil {
				t.Fatalf("%s crashAfter=%d Recover: %v", tc.name, crashAfter, err)
			}
			if got := rec.Session.Engine().EventSeq(); got != crashAfter {
				t.Fatalf("%s crashAfter=%d: recovered at event %d", tc.name, crashAfter, got)
			}
			want := int64(0)
			if tc.every > 0 {
				want = crashAfter / tc.every * tc.every
			}
			if rec.SnapshotSeq != want || rec.Replayed != crashAfter-want {
				t.Fatalf("%s crashAfter=%d: snapshot %d + %d replayed, want %d + %d", tc.name, crashAfter, rec.SnapshotSeq, rec.Replayed, want, crashAfter-want)
			}
			res, err := rec.Session.Run()
			if err != nil {
				t.Fatalf("%s crashAfter=%d resume: %v", tc.name, crashAfter, err)
			}
			if got := resultJSON(t, res); got != wantRes {
				t.Fatalf("%s crashAfter=%d: result diverged\n got %s\nwant %s", tc.name, crashAfter, got, wantRes)
			}
			// A snapshot restore skips the events before it, so only a run
			// re-stepped from event 0 shows its collector every event.
			if got := col.Snapshot().JSON(); want == 0 && got != wantMet {
				t.Fatalf("%s crashAfter=%d: metrics diverged\n got %s\nwant %s", tc.name, crashAfter, got, wantMet)
			}
		}
	}
}

// TestCheckpointRefusesFaultyRun: a faulty run persisted with Every > 0
// fails at its first checkpoint with the engine's refusal, naming the
// option, instead of counting a skipped checkpoint and running on.
func TestCheckpointRefusesFaultyRun(t *testing.T) {
	l := testList(t, 40)
	e, err := core.NewEngine(l, newTestPolicy(t, "FirstFit"), faultOpts()...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := Begin(e, NewRunMeta(l, "FirstFit", 1, "test"), Config{Dir: t.TempDir(), Every: 8, SyncEvery: 1})
	if err != nil {
		e.Close()
		t.Fatalf("Begin: %v", err)
	}
	defer s.Close()
	for i := 1; i < 8; i++ {
		if _, ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, _, err := s.Step(); err == nil || !strings.Contains(err.Error(), "WithFaults") {
		t.Fatalf("step 8, the first checkpoint: err = %v, want the refusal naming WithFaults", err)
	}
	if st := s.TakeIOStats(); st.CheckpointsSkipped != 0 {
		t.Fatalf("the refusal was counted as %d skipped checkpoints", st.CheckpointsSkipped)
	}
}

func TestRecoverWithoutSnapshotsReplaysFromScratch(t *testing.T) {
	l := testList(t, 50)
	const policy = "BestFit"
	wantRes, _ := referenceRun(t, l, policy, t.TempDir(), 0, faultOpts())

	dir := t.TempDir()
	e, err := core.NewEngine(l, newTestPolicy(t, policy), faultOpts()...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cfg := Config{Dir: dir, Every: 0, SyncEvery: 1}
	s, err := Begin(e, NewRunMeta(l, policy, 1, "test"), cfg)
	if err != nil {
		e.Close()
		t.Fatalf("Begin: %v", err)
	}
	for i := 0; i < 30; i++ {
		if _, ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	s.log.f.Close()
	s.engine.Close()

	rec, err := Recover(l, cfg, faultOpts()...)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.SnapshotSeq != 0 || rec.SnapshotPath != "" {
		t.Fatalf("scratch recovery used snapshot %q", rec.SnapshotPath)
	}
	if rec.Replayed != 30 {
		t.Fatalf("replayed %d events, want 30", rec.Replayed)
	}
	res, err := rec.Session.Run()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := resultJSON(t, res); got != wantRes {
		t.Fatalf("result diverged\n got %s\nwant %s", got, wantRes)
	}
}

// TestRecoverRestepsPastNonCanonicalLoadSums: restore checks each open
// bin's load sums by their canonical bytes, so a snapshot file whose payload
// holds the right sum in another form is refused. Here item 1 is far
// smaller than item 0 and departs before the checkpoint; engines whose
// payloads were not canonical kept item 1's limbs, now zero, at the window's
// edge (the bytes below are the ones such an engine wrote), and a sum of
// many items could also leave limbs uncarried. With either payload in place
// of the canonical one, recovery must report the snapshot as one tolerated
// corruption, re-step the run from event 0, and finish it as the
// uninterrupted run does.
func TestRecoverRestepsPastNonCanonicalLoadSums(t *testing.T) {
	l := item.NewList(1)
	l.Add(0, 10, vector.Of(0.5))
	l.Add(0, 1, vector.Of(1e-12))
	l.Add(2, 3, vector.Of(0.9))
	const policy = "FirstFit"
	want, err := core.Simulate(l, newTestPolicy(t, policy))
	if err != nil {
		t.Fatal(err)
	}
	// 0.5 is 2^17 in limb 33.
	zeroEdge := []byte{1, 30, 0, 33, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0}
	uncarried := []byte{1, 32, 0, 33, 0,
		0, 0, 0, 0, 1, 0, 0, 0, 0xFF, 0xFF, 1, 0, 0, 0, 0, 0} // 2^32, 2^17 − 1
	for _, payload := range [][]byte{zeroEdge, uncarried} {
		e, err := core.NewEngine(l, newTestPolicy(t, policy))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Dir: "run", Every: 3, SyncEvery: 1, FS: vfs.NewMem()}
		s, err := Begin(e, NewRunMeta(l, policy, 1, "test"), cfg)
		if err != nil {
			e.Close()
			t.Fatal(err)
		}
		// Arrivals 0 and 1 share bin 0, item 1 departs at t = 1, and the
		// third step checkpoints; the fourth places item 2.
		for i := 0; i < 4; i++ {
			if _, ok, err := s.Step(); err != nil || !ok {
				t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		rewriteSnapshotAcc(t, cfg.FS, filepath.Join(cfg.Dir, snapName(3)), payload)
		rec, err := Recover(l, cfg)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if len(rec.Corruptions) != 1 || rec.SnapshotSeq != 0 || rec.Replayed != 4 || !strings.Contains(rec.Corruptions[0].Error(), "load sums disagree") {
			t.Fatalf("recovered from snapshot %d + %d replayed with corruptions %v, want 0 + 4 with the snapshot refused for its load sums",
				rec.SnapshotSeq, rec.Replayed, rec.Corruptions)
		}
		got, err := rec.Session.Run()
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if a, b := resultJSON(t, got), resultJSON(t, want); a != b {
			t.Fatalf("result diverged\n got %s\nwant %s", a, b)
		}
	}
}

// rewriteSnapshotAcc replaces the first open bin's first accumulator
// payload in the snapshot file at path, keeping its meta and digest mark.
func rewriteSnapshotAcc(t *testing.T, fsys vfs.FS, path string, payload []byte) {
	t.Helper()
	fd, err := ReadFile(fsys, path)
	if err != nil || len(fd.Records) != 3 {
		t.Fatalf("read %s: %v", path, err)
	}
	snap, err := DecodeSnapshot(fd.Records[2])
	if err != nil {
		t.Fatal(err)
	}
	if string(snap.Bins[0].Acc[0]) == string(payload) {
		t.Fatal("the payload is already the one the engine wrote")
	}
	snap.Bins[0].Acc[0] = payload
	content := appendHeader(nil, KindSnapshot)
	for _, r := range [][]byte{fd.Records[0], fd.Records[1], EncodeSnapshot(snap)} {
		content = appendRecord(content, r)
	}
	if err := WriteFileAtomic(fsys, path, content); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverRejectsWrongInstance(t *testing.T) {
	l := testList(t, 40)
	dir := t.TempDir()
	e, err := core.NewEngine(l, newTestPolicy(t, "FirstFit"), faultOpts()...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cfg := Config{Dir: dir, SyncEvery: 1}
	s, err := Begin(e, NewRunMeta(l, "FirstFit", 1, ""), cfg)
	if err != nil {
		e.Close()
		t.Fatalf("Begin: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	other := l.Clone()
	other.Items[0].Size[1] *= 0.5
	if _, err := Recover(other, cfg, faultOpts()...); err == nil {
		t.Fatal("Recover accepted a different instance")
	}
	if _, err := Recover(l, Config{Dir: filepath.Join(dir, "nope")}, faultOpts()...); err == nil {
		t.Fatal("Recover accepted a missing directory")
	}
}

func TestRecoverMismatchedOptionsDiverges(t *testing.T) {
	l := testList(t, 40)
	dir := t.TempDir()
	e, err := core.NewEngine(l, newTestPolicy(t, "FirstFit"), faultOpts()...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cfg := Config{Dir: dir, SyncEvery: 1}
	s, err := Begin(e, NewRunMeta(l, "FirstFit", 1, ""), cfg)
	if err != nil {
		e.Close()
		t.Fatalf("Begin: %v", err)
	}
	for i := 0; i < 25; i++ {
		if _, ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The digest marks must notice that the run is being resumed under a
	// different fault schedule.
	_, err = Recover(l, cfg, core.WithFaults(faults.MTBF{Mean: 5, Seed: 99}, faults.Fixed{Wait: 1}), core.WithMaxBins(4), core.WithAdmissionQueue(8))
	var ce *CorruptionError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "divergence") {
		t.Fatalf("want replay divergence, got %v", err)
	}
}

func TestBeginRejectsBadConfigs(t *testing.T) {
	l := testList(t, 20)
	e, err := core.NewEngine(l, newTestPolicy(t, "FirstFit"), faultOpts()...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	if _, err := Begin(e, NewRunMeta(l, "FirstFit", 1, ""), Config{}); err == nil {
		t.Fatal("Begin accepted an empty directory")
	}
}

// --- file damage helpers ---

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func truncate(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeAt(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}
