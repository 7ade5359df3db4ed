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

// faultOpts is the engine configuration the persistence tests run under:
// crashes, retries, capped bins, and an admission queue, so every event class
// shows up in the digest.
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
	e, err := core.NewEngine(l, newTestPolicy(t, "MoveToFront"), faultOpts()...)
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
	e, err := core.NewEngine(l, newTestPolicy(t, "FirstFit"), faultOpts()...)
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

// referenceRun completes an uninterrupted persisted run, with a digest mark
// after every event, and returns its final result and metrics JSON.
func referenceRun(t *testing.T, l *item.List, policy string, dir string, every int64) (string, string) {
	t.Helper()
	col := metrics.NewCollector(metrics.WithClock(&metrics.Manual{}))
	opts := append(faultOpts(), core.WithObserver(col))
	e, err := core.NewEngine(l, newTestPolicy(t, policy), opts...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := Begin(e, NewRunMeta(l, policy, 1, "test"), Config{Dir: dir, Every: every, SyncEvery: 1, Aux: []AuxCodec{col.Registry()}})
	if err != nil {
		e.Close()
		t.Fatalf("Begin: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	mj, err := col.Registry().MarshalAux()
	if err != nil {
		t.Fatalf("metrics marshal: %v", err)
	}
	return resultJSON(t, res), string(mj)
}

func TestSessionRecoverResume(t *testing.T) {
	l := testList(t, 80)
	const policy = "MoveToFront"
	wantRes, wantMet := referenceRun(t, l, policy, t.TempDir(), 16)

	for _, crashAfter := range []int64{0, 1, 15, 16, 17, 40, 97} {
		dir := t.TempDir()
		col := metrics.NewCollector(metrics.WithClock(&metrics.Manual{}))
		opts := append(faultOpts(), core.WithObserver(col))
		e, err := core.NewEngine(l, newTestPolicy(t, policy), opts...)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		cfg := Config{Dir: dir, Every: 16, SyncEvery: 1, Aux: []AuxCodec{col.Registry()}}
		s, err := Begin(e, NewRunMeta(l, policy, 1, "test"), cfg)
		if err != nil {
			e.Close()
			t.Fatalf("Begin: %v", err)
		}
		for i := int64(0); i < crashAfter; i++ {
			if _, ok, err := s.Step(); err != nil || !ok {
				t.Fatalf("crashAfter=%d step %d: ok=%v err=%v", crashAfter, i, ok, err)
			}
		}
		// Simulate a hard kill: drop the session on the floor, releasing only
		// the descriptor and the policy guard. Nothing is flushed or synced
		// beyond what already happened.
		s.log.f.Close()
		s.engine.Close()

		rcol := metrics.NewCollector(metrics.WithClock(&metrics.Manual{}))
		ropts := append(faultOpts(), core.WithObserver(rcol))
		rcfg := cfg
		rcfg.Aux = []AuxCodec{rcol.Registry()}
		rec, err := Recover(l, rcfg, ropts...)
		if err != nil {
			t.Fatalf("crashAfter=%d Recover: %v", crashAfter, err)
		}
		if got := rec.Session.Engine().EventSeq(); got != crashAfter {
			t.Fatalf("crashAfter=%d: recovered at event %d", crashAfter, got)
		}
		if want := (crashAfter / 16) * 16; rec.SnapshotSeq != want {
			t.Fatalf("crashAfter=%d: restored from snapshot %d, want %d", crashAfter, rec.SnapshotSeq, want)
		}
		res, err := rec.Session.Run()
		if err != nil {
			t.Fatalf("crashAfter=%d resume: %v", crashAfter, err)
		}
		if got := resultJSON(t, res); got != wantRes {
			t.Fatalf("crashAfter=%d: result diverged\n got %s\nwant %s", crashAfter, got, wantRes)
		}
		mj, err := rcol.Registry().MarshalAux()
		if err != nil {
			t.Fatalf("metrics marshal: %v", err)
		}
		if string(mj) != wantMet {
			t.Fatalf("crashAfter=%d: metrics diverged\n got %s\nwant %s", crashAfter, mj, wantMet)
		}
	}
}

func TestRecoverWithoutSnapshotsReplaysFromScratch(t *testing.T) {
	l := testList(t, 50)
	const policy = "BestFit"
	wantRes, _ := referenceRun(t, l, policy, t.TempDir(), 0)

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
	dup := Config{Dir: t.TempDir(), Aux: []AuxCodec{dummyAux("a"), dummyAux("a")}}
	if _, err := Begin(e, NewRunMeta(l, "FirstFit", 1, ""), dup); err == nil {
		t.Fatal("Begin accepted duplicate aux keys")
	}
	empty := Config{Dir: t.TempDir(), Aux: []AuxCodec{dummyAux("")}}
	if _, err := Begin(e, NewRunMeta(l, "FirstFit", 1, ""), empty); err == nil {
		t.Fatal("Begin accepted an empty aux key")
	}
}

// dummyAux is a minimal AuxCodec for configuration-validation tests.
type dummyAux string

func (d dummyAux) AuxKey() string                 { return string(d) }
func (d dummyAux) MarshalAux() ([]byte, error)    { return []byte("x"), nil }
func (d dummyAux) UnmarshalAux(data []byte) error { return nil }

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
