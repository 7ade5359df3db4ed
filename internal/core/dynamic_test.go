package core

import (
	"strings"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
	"dvbp/internal/workload"
)

// feedDynamic drives a dynamic engine through the given items in order:
// append, then step until each arrival event commits, recording the bin it
// landed in. Returns the engine still un-finished.
func feedDynamic(t *testing.T, e *Engine, items []item.Item) map[int]int {
	t.Helper()
	placed := make(map[int]int, len(items))
	for _, it := range items {
		rec, err := appendAndPlace(e, it)
		if err != nil {
			t.Fatal(err)
		}
		placed[rec.ItemID] = rec.BinID
	}
	return placed
}

// TestDynamicIncrementalMatchesBatch is the dynamic-mode determinism
// contract: feeding a stream item by item (stepping only due events after
// each) and then draining must produce a Result identical to a one-shot
// static run over the same final list, for every standard policy.
func TestDynamicIncrementalMatchesBatch(t *testing.T) {
	src, err := workload.Uniform(workload.UniformConfig{D: 2, N: 500, Mu: 20, T: 300, B: 50}, 11)
	if err != nil {
		t.Fatal(err)
	}
	stream := src.SortedByArrival()

	// The batch reference list admits the items in stream order, so IDs and
	// SeqNos match what AppendArrival assigns.
	batch := item.NewList(src.Dim)
	for _, it := range stream {
		batch.Add(it.Arrival, it.Departure, it.Size)
	}

	for _, name := range PolicyNames() {
		p1, _ := NewPolicy(name, 7)
		p2, _ := NewPolicy(name, 7)
		e, err := NewEngine(item.NewList(src.Dim), p1, WithDynamicArrivals())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		feedDynamic(t, e, stream)
		for {
			_, ok, err := e.Step()
			if err != nil {
				t.Fatalf("%s: drain: %v", name, err)
			}
			if !ok {
				break
			}
		}
		got, err := e.Finish()
		if err != nil {
			t.Fatalf("%s: Finish: %v", name, err)
		}
		want := mustSimulate(t, batch, p2)
		resultsEqual(t, "dynamic "+name, got, want)
		if got.Span != want.Span || got.Mu != want.Mu || got.Items != want.Items {
			t.Errorf("%s: shape summary (span=%g mu=%g items=%d) vs (span=%g mu=%g items=%d)",
				name, got.Span, got.Mu, got.Items, want.Span, want.Mu, want.Items)
		}
	}
}

// TestDynamicSnapshotRestoreMidStream: checkpoint a dynamic run mid-stream,
// grow the list further, and restore the snapshot against the longer list —
// the restored engine must regenerate the rest of the run identically.
func TestDynamicSnapshotRestoreMidStream(t *testing.T) {
	src, err := workload.Uniform(workload.UniformConfig{D: 2, N: 200, Mu: 10, T: 100, B: 20}, 3)
	if err != nil {
		t.Fatal(err)
	}
	stream := src.SortedByArrival()

	p1, _ := NewPolicy("BestFit", 1)
	live, err := NewEngine(item.NewList(src.Dim), p1, WithDynamicArrivals())
	if err != nil {
		t.Fatal(err)
	}
	feedDynamic(t, live, stream[:120])
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	seq := live.EventSeq()

	// Continue the live run to completion.
	feedDynamic(t, live, stream[120:])
	for {
		_, ok, err := live.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	want, err := live.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Restore against the full final list (as recovery does after the op log
	// is re-read) and replay the same suffix.
	full := item.NewList(src.Dim)
	for _, it := range stream {
		full.Add(it.Arrival, it.Departure, it.Size)
	}
	p2, _ := NewPolicy("BestFit", 1)
	re, err := RestoreEngine(full, p2, snap, WithDynamicArrivals())
	if err != nil {
		t.Fatal(err)
	}
	if re.EventSeq() != seq {
		t.Fatalf("restored at event %d, want %d", re.EventSeq(), seq)
	}
	for {
		_, ok, err := re.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	got, err := re.Finish()
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "restored dynamic", got, want)
}

// TestAppendPlacementsMatchesSnapshot pins the listing accessor against the
// deep copy it replaces: for every from, including ones outside [0, total],
// it appends exactly the snapshot's placements from the clamped index on,
// keeps dst's prefix, and reports the committed total.
func TestAppendPlacementsMatchesSnapshot(t *testing.T) {
	src, err := workload.Uniform(workload.UniformConfig{D: 2, N: 60, Mu: 10, T: 30, B: 20}, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewPolicy("FirstFit", 1)
	e, err := NewEngine(item.NewList(src.Dim), p, WithDynamicArrivals())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	feedDynamic(t, e, src.SortedByArrival())
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	all := snap.Result.Placements
	head := Placement{ItemID: -1}
	for _, from := range []int{-3, 0, 1, len(all) / 2, len(all), len(all) + 5} {
		got, total := e.AppendPlacements([]Placement{head}, from)
		start := min(max(from, 0), len(all))
		if total != len(all) || len(got) != 1+len(all)-start || got[0] != head {
			t.Fatalf("from %d: %d records, total %d; want dst's 1 + %d, total %d", from, len(got), total, len(all)-start, len(all))
		}
		for i, pl := range got[1:] {
			if pl != all[start+i] {
				t.Fatalf("from %d: record %d = %+v, want %+v", from, i, pl, all[start+i])
			}
		}
	}
}

// TestDynamicGuards pins the admission discipline's error cases.
func TestDynamicGuards(t *testing.T) {
	p, _ := NewPolicy("FirstFit", 1)
	if _, err := NewEngine(item.NewList(2), p); err == nil {
		t.Fatal("static engine accepted an empty list")
	}
	e, err := NewEngine(item.NewList(2), p, WithDynamicArrivals())
	if err != nil {
		t.Fatalf("dynamic engine rejected an empty list: %v", err)
	}
	defer e.Close()

	if _, ok := e.PeekTime(); ok {
		t.Error("fresh dynamic engine claims a pending event")
	}
	if _, err := e.AppendArrival(5, 10, vector.Of(0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	if tm, ok := e.PeekTime(); !ok || tm != 5 {
		t.Errorf("PeekTime = %v,%v, want 5,true", tm, ok)
	}
	// Arrivals must be nondecreasing.
	if _, err := e.AppendArrival(4, 6, vector.Of(0.1, 0.1)); err == nil || !strings.Contains(err.Error(), "before the previously admitted") {
		t.Errorf("out-of-order arrival accepted (err=%v)", err)
	}
	// Dimension and range checks still apply.
	if _, err := e.AppendArrival(6, 7, vector.Of(0.5)); err == nil {
		t.Error("wrong-dimension item accepted")
	}
	if _, err := e.AppendArrival(6, 7, vector.Of(1.5, 0.1)); err == nil {
		t.Error("oversized item accepted")
	}
	// Commit past time 5, then try to append behind the clock.
	if _, ok, err := e.Step(); err != nil || !ok {
		t.Fatalf("Step = %v, %v", ok, err)
	}
	if _, err := e.AppendArrival(5, 9, vector.Of(0.1, 0.1)); err != nil {
		t.Errorf("same-instant arrival after commit rejected: %v", err)
	}
	st := e.Stats()
	if st.Clock != 5 || st.Items != 2 || st.OpenBins != 1 || st.Placements != 1 || st.ArrivalsPending != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.CostAt(8); got != 3 {
		t.Errorf("CostAt(8) = %g, want 3", got)
	}
	// Drain through the departures (t=9 and t=10): the clock is now ahead of
	// the last admitted arrival, and appends behind it must be refused.
	for {
		_, ok, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if _, err := e.AppendArrival(7, 12, vector.Of(0.1, 0.1)); err == nil || !strings.Contains(err.Error(), "engine's past") {
		t.Errorf("arrival behind the committed clock accepted (err=%v)", err)
	}

	// A static engine refuses AppendArrival outright.
	l := item.NewList(1)
	l.Add(0, 1, vector.Of(0.5))
	p2, _ := NewPolicy("FirstFit", 1)
	se, err := NewEngine(l, p2)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := se.AppendArrival(2, 3, vector.Of(0.5)); err == nil {
		t.Error("static engine accepted AppendArrival")
	}
}

// TestDynamicListNumberedByIndex pins the dynamic-mode ID rule: the k-th item
// must have ID k, so the ID AppendArrival hands out next is never taken. A
// list whose one item has ID 1 would otherwise get a second item 1 and fail
// at its dispatch; NewEngine and RestoreEngine refuse it up front, naming
// the item, while static runs keep accepting arbitrary unique IDs.
func TestDynamicListNumberedByIndex(t *testing.T) {
	offByOne := &item.List{Dim: 1, Items: []item.Item{{ID: 1, Arrival: 0, Departure: 4, Size: vector.Of(0.5)}}}
	p, _ := NewPolicy("FirstFit", 1)
	if _, err := NewEngine(offByOne, p, WithDynamicArrivals()); err == nil || !strings.Contains(err.Error(), "item 1:") {
		t.Fatalf("dynamic engine over a list with ID 1 at index 0: err = %v, want one naming item 1", err)
	}

	indexed := item.NewList(1)
	indexed.Add(0, 4, vector.Of(0.5))
	p, _ = NewPolicy("FirstFit", 1)
	e, err := NewEngine(indexed, p, WithDynamicArrivals())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if id, err := e.AppendArrival(1, 3, vector.Of(0.25)); err != nil || id != 1 {
		t.Fatalf("AppendArrival = %d, %v; want ID 1", id, err)
	}
	if _, ok, err := e.Step(); err != nil || !ok {
		t.Fatalf("Step = %v, %v", ok, err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	renumbered := &item.List{Dim: 1, Items: []item.Item{indexed.Items[0], indexed.Items[1]}}
	renumbered.Items[1].ID = 7
	p, _ = NewPolicy("FirstFit", 1)
	if _, err := RestoreEngine(renumbered, p, snap, WithDynamicArrivals()); err == nil || !strings.Contains(err.Error(), "item 7:") {
		t.Fatalf("restore over a list with ID 7 at index 1: err = %v, want one naming item 7", err)
	}
	p, _ = NewPolicy("FirstFit", 1)
	re, err := RestoreEngine(indexed, p, snap, WithDynamicArrivals())
	if err != nil {
		t.Fatalf("restore over the index-numbered list: %v", err)
	}
	defer re.Close()
	if got, want := drain(t, re), drain(t, e); got.Cost != want.Cost || got.BinsOpened != want.BinsOpened {
		t.Fatalf("restored run cost %g in %d bins, uninterrupted %g in %d", got.Cost, got.BinsOpened, want.Cost, want.BinsOpened)
	}

	p, _ = NewPolicy("FirstFit", 1)
	if _, err := Simulate(offByOne, p); err != nil {
		t.Fatalf("static run over a list with ID 1: %v", err)
	}
}
