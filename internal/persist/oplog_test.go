package persist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vector"
	"dvbp/internal/vfs"
)

// --- op codec ---

func TestOpLogCodecRoundTrip(t *testing.T) {
	d := 3
	ops := []Op{
		{Kind: OpItem, Arrival: 0, Departure: 4.5, Size: vector.Vector{0.25, 0.5, 0.125}},
		{Kind: OpAdvance, To: 2},
		{Kind: OpItem, Arrival: 2, Departure: 3, Size: vector.Vector{1, 0, 0.75}},
		{Kind: OpAdvance, To: 10},
	}
	for i, want := range ops {
		var buf []byte
		if want.Kind == OpItem {
			buf = AppendItemOp(nil, want.Arrival, want.Departure, want.Size)
		} else {
			buf = AppendAdvanceOp(nil, want.To)
		}
		got, err := DecodeOp(buf, d)
		if err != nil {
			t.Fatalf("op %d: decode: %v", i, err)
		}
		if got.Kind != want.Kind || got.Arrival != want.Arrival || got.Departure != want.Departure || got.To != want.To {
			t.Fatalf("op %d: got %+v want %+v", i, got, want)
		}
		if want.Kind == OpItem && !got.Size.Equal(want.Size, 0) {
			t.Fatalf("op %d: size %v want %v", i, got.Size, want.Size)
		}
	}
}

func TestOpLogCodecRejectsGarbage(t *testing.T) {
	d := 2
	cases := map[string][]byte{
		"empty":            {},
		"unknown kind":     {0x7f, 0, 0, 0, 0, 0, 0, 0, 0},
		"short item":       AppendItemOp(nil, 1, 2, vector.Vector{0.5})[:10],
		"wrong dim":        AppendItemOp(nil, 1, 2, vector.Vector{0.5, 0.5, 0.5}),
		"long advance":     append(AppendAdvanceOp(nil, 3), 0),
		"short advance":    AppendAdvanceOp(nil, 3)[:5],
		"trailing on item": append(AppendItemOp(nil, 1, 2, vector.Vector{0.5, 0.5}), 0xAA),
	}
	for name, payload := range cases {
		if _, err := DecodeOp(payload, d); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if _, ok := err.(*CorruptionError); !ok {
			t.Errorf("%s: error %T, want *CorruptionError", name, err)
		}
	}
	nan := AppendAdvanceOp(nil, 0)
	for i := 1; i < 9; i++ {
		nan[i] = 0xff
	}
	if _, err := DecodeOp(nan, d); err == nil {
		t.Errorf("NaN advance decoded without error")
	}
}

// --- op log files ---

func TestOpLogFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.dvbp")
	meta := NewDynamicRunMeta(2, "firstfit", 7, "")

	w, err := Create(nil, path, KindOpLog, encodeMeta(meta))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	w.Append(AppendItemOp(nil, 0, 5, vector.Vector{0.5, 0.25}))
	w.Append(appendMark(nil, 1, 0xfeed))
	w.Append(AppendItemOp(nil, 1, 2, vector.Vector{0.125, 0.5}))
	w.Append(AppendAdvanceOp(nil, 3))
	w.Append(appendMark(nil, 4, 0xbeef))
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	data, err := ReadOpLog(nil, path, "tenant-a")
	if err != nil {
		t.Fatalf("ReadOpLog: %v", err)
	}
	if data.Torn != nil {
		t.Fatalf("unexpected torn tail: %v", data.Torn)
	}
	if !data.Meta.equal(meta) {
		t.Fatalf("meta %+v, want %+v", data.Meta, meta)
	}
	if data.List.Len() != 2 || len(data.marks) != 2 {
		t.Fatalf("got %d items and %d marks; want 2, 2", data.List.Len(), len(data.marks))
	}
	if data.List.Items[1].ID != 1 || data.List.Items[1].Arrival != 1 {
		t.Fatalf("item 1 rebuilt wrong: %+v", data.List.Items[1])
	}
	if m := data.marks[1]; m.Seq != 4 || m.Digest != 0xbeef {
		t.Fatalf("mark 1 read back as %+v", m)
	}
	if data.Watermark != 3 || data.MaxAdvance != 3 {
		t.Fatalf("watermark=%g maxAdvance=%g, want 3, 3", data.Watermark, data.MaxAdvance)
	}

	// A static run's log holds its meta and marks only.
	static := filepath.Join(dir, "static.dvbp")
	w, err = Create(nil, static, KindOpLog, encodeMeta(NewRunMeta(testList(t, 5), "firstfit", 1, "")), appendMark(nil, 64, 1))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	w.Close()
	if data, err := ReadOpLog(nil, static, "static"); err != nil || data.List.Len() != 0 || len(data.marks) != 1 {
		t.Fatalf("static log read back as %+v, %v", data, err)
	}
}

func TestOpLogTornTailTruncatesAndReopens(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.dvbp")
	meta := NewDynamicRunMeta(1, "nextfit", 1, "")
	w, err := Create(nil, path, KindOpLog, encodeMeta(meta))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 4; i++ {
		w.Append(AppendItemOp(nil, float64(i), float64(i)+1, vector.Vector{0.5}))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Tear the file mid-record, as a crash during an append would.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	data, err := ReadOpLog(nil, path, "tenant-b")
	if err != nil {
		t.Fatalf("ReadOpLog after tear: %v", err)
	}
	if data.Torn == nil {
		t.Fatalf("torn tail not reported")
	}
	if data.Torn.Run != "tenant-b" {
		t.Fatalf("torn corruption not labeled: %v", data.Torn)
	}
	if data.List.Len() != 3 {
		t.Fatalf("rebuilt %d items after tear, want 3", data.List.Len())
	}

	// Reopen at the valid prefix and continue; the log must read back whole.
	w2, err := openAppend(vfs.OS{}, path, data.ValidSize)
	if err != nil {
		t.Fatalf("openAppend: %v", err)
	}
	w2.Append(AppendItemOp(nil, 9, 11, vector.Vector{0.25}))
	if err := w2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data2, err := ReadOpLog(nil, path, "tenant-b")
	if err != nil {
		t.Fatalf("ReadOpLog after reopen: %v", err)
	}
	if data2.Torn != nil || data2.List.Len() != 4 || data2.Watermark != 9 {
		t.Fatalf("after reopen: torn=%v items=%d watermark=%g", data2.Torn, data2.List.Len(), data2.Watermark)
	}
}

func TestOpLogRejectsSemanticCorruption(t *testing.T) {
	dir := t.TempDir()
	build := func(name string, meta RunMeta, ops ...[]byte) string {
		path := filepath.Join(dir, name)
		w, err := Create(nil, path, KindOpLog, append([][]byte{encodeMeta(meta)}, ops...)...)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return path
	}
	dyn := NewDynamicRunMeta(1, "firstfit", 1, "")

	cases := map[string]string{
		"regressing arrival": build("regress.dvbp", dyn,
			AppendItemOp(nil, 5, 6, vector.Vector{0.5}),
			AppendItemOp(nil, 4, 6, vector.Vector{0.5})),
		"regressing advance": build("advance.dvbp", dyn,
			AppendAdvanceOp(nil, 5),
			AppendAdvanceOp(nil, 4)),
		"invalid item": build("invalid.dvbp", dyn,
			AppendItemOp(nil, 2, 1, vector.Vector{0.5})),
		"repeated mark": build("marks.dvbp", dyn,
			appendMark(nil, 3, 1),
			appendMark(nil, 3, 1)),
		"item in a static log": build("static.dvbp", NewRunMeta(testList(t, 5), "firstfit", 1, ""),
			AppendItemOp(nil, 0, 1, vector.Vector{0.5, 0.5, 0.5})),
	}
	for name, path := range cases {
		_, err := ReadOpLog(nil, path, "tenant-c")
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		var ce *CorruptionError
		if !errors.As(err, &ce) || ce.Run != "tenant-c" {
			t.Errorf("%s: error %v not a labeled *CorruptionError", name, err)
		}
	}

	// A snapshot is not an op log.
	snap := filepath.Join(dir, snapName(0))
	w, err := Create(nil, snap, KindSnapshot)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	w.Close()
	if _, err := ReadOpLog(nil, snap, "tenant-c"); err == nil {
		t.Fatalf("ReadOpLog accepted a snapshot file")
	}
}

// --- corruption labeling across recovery ---

func TestRecoverLabelsCorruptionWithRun(t *testing.T) {
	l := testList(t, 60)
	dir := t.TempDir()
	cfg := Config{Dir: dir, Label: "tenant-a", Every: 20, SyncEvery: 1}
	meta := NewRunMeta(l, "bestfit", 3, "")
	e, err := core.NewEngine(l, newTestPolicy(t, "bestfit"))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := Begin(e, meta, cfg)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	for i := 0; i < 50; i++ {
		if _, ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip a byte near the op log's end: recovery tolerates the truncation but
	// must name the tenant in the corruption it reports.
	logPath := filepath.Join(dir, opsFile)
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	raw[len(raw)-20] ^= 0xff
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	rec, err := Recover(l, cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Session.Close()
	if len(rec.Corruptions) == 0 {
		t.Fatalf("no corruption reported for a damaged op log")
	}
	for _, ce := range rec.Corruptions {
		if ce.Run != "tenant-a" {
			t.Errorf("corruption missing run label: %v", ce)
		}
		if !strings.Contains(ce.Error(), `run "tenant-a"`) {
			t.Errorf("corruption message does not name the run: %v", ce)
		}
	}

	// A fatally damaged op-log header must also carry the label.
	raw[0] ^= 0xff
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, err = Recover(l, cfg)
	var ce *CorruptionError
	if !errors.As(err, &ce) || ce.Run != "tenant-a" {
		t.Fatalf("header corruption not labeled: %v", err)
	}
}

// --- dynamic runs through the session layer ---

// dynFeed logs one item to a dynamic session's op log and syncs it (the
// durability ordering the server relies on), then appends it to the engine
// and steps the session until the item's arrival event commits.
func dynFeed(t *testing.T, s *Session, arrival, departure float64, size vector.Vector) {
	t.Helper()
	s.AppendOp(AppendItemOp(nil, arrival, departure, size))
	if err := s.Sync(); err != nil {
		t.Fatalf("op log sync: %v", err)
	}
	id, err := s.Engine().AppendArrival(arrival, departure, size)
	if err != nil {
		t.Fatalf("AppendArrival(%g): %v", arrival, err)
	}
	for {
		rec, ok, err := s.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if !ok {
			t.Fatalf("stream drained before arrival of item %d committed", id)
		}
		if rec.Class == core.EventArrival && rec.ItemID == id {
			return
		}
	}
}

// dynItems is a deterministic dynamic workload: non-decreasing arrivals with
// simultaneous bursts and varied durations.
func dynItems(n int) []item.Item {
	out := make([]item.Item, n)
	for i := 0; i < n; i++ {
		arr := float64(i / 3)
		out[i] = item.Item{
			Arrival:   arr,
			Departure: arr + 1 + float64((i*7)%5),
			Size:      vector.Vector{0.1 + float64(i%4)*0.2, 0.15 + float64(i%3)*0.25},
		}
	}
	return out
}

func TestDynamicSessionKillRecoverResume(t *testing.T) {
	const n, killAt = 90, 60
	items := dynItems(n)
	meta := NewDynamicRunMeta(2, "firstfit", 11, "")

	// Uninterrupted reference: same stream, no crash.
	runAll := func(dir string) string {
		e, err := core.NewEngine(item.NewList(2), newTestPolicy(t, "firstfit"), core.WithDynamicArrivals())
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		s, err := Begin(e, meta, Config{Dir: dir, Every: 25, SyncEvery: 1})
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		for _, it := range items {
			dynFeed(t, s, it.Arrival, it.Departure, it.Size)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return resultJSON(t, res)
	}
	want := runAll(t.TempDir())

	// Interrupted run: feed killAt items, then abandon the session (Close
	// syncs, standing in for the crash survivor state — the torture tests
	// cover literal torn tails).
	dir := t.TempDir()
	cfg := Config{Dir: dir, Label: "tenant-dyn", Every: 25, SyncEvery: 1}
	e, err := core.NewEngine(item.NewList(2), newTestPolicy(t, "firstfit"), core.WithDynamicArrivals())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := Begin(e, meta, cfg)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	for _, it := range items[:killAt] {
		dynFeed(t, s, it.Arrival, it.Departure, it.Size)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Recover: rebuild the list from the op log, restore the newest snapshot
	// and re-step to the log's position. The snapshot covers a strict prefix
	// of the op-log list; recovery must accept it and re-step the rest.
	opsPath := filepath.Join(dir, opsFile)
	logged, err := ReadOpLog(nil, opsPath, "tenant-dyn")
	if err != nil {
		t.Fatalf("ReadOpLog: %v", err)
	}
	if logged.List.Len() != killAt {
		t.Fatalf("op log rebuilt %d items, want %d", logged.List.Len(), killAt)
	}
	short := logged.List.Clone()
	short.Items = short.Items[:killAt-1]
	if _, err := Recover(short, cfg, core.WithDynamicArrivals()); err == nil {
		t.Fatalf("Recover accepted a list that is not the op log's")
	}
	rec, err := Recover(logged.List, cfg, core.WithDynamicArrivals())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.SnapshotSeq == 0 {
		t.Fatalf("recovery used no snapshot despite checkpoints every 25 events")
	}
	for _, it := range items[killAt:] {
		dynFeed(t, rec.Session, it.Arrival, it.Departure, it.Size)
	}
	res, err := rec.Session.Run()
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Fatalf("recovered dynamic run diverged from uninterrupted run\ngot:  %s\nwant: %s", got, want)
	}

	// The whole stream must also have made it into the op log.
	final, err := ReadOpLog(nil, opsPath, "tenant-dyn")
	if err != nil {
		t.Fatalf("final ReadOpLog: %v", err)
	}
	if final.List.Len() != n {
		t.Fatalf("final op log holds %d items, want %d", final.List.Len(), n)
	}
}
