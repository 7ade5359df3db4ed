package persist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/item"
)

// TestSnapshotBytesGolden pins EncodeSnapshot's bytes at every checkpoint
// of one static and one dynamic run: a snapshot before the first event and
// after every 8th, each folded into a SHA-256 with its length. The expected
// digests were taken from the engine before it kept its outcomes in a
// per-item table and placed its bin records by ID, so they fail when a
// snapshot's placements, bin records or outcomes gain, lose or reorder an
// entry.
func TestSnapshotBytesGolden(t *testing.T) {
	const (
		every      = 8
		wantStatic = "965f5e2b7a555e559ebacd13c45aa592a8f06546dceb7740e8bd000c151d8988"
		wantDyn    = "6ce7bf395b631f35d2199dc9eed0d40e46d3d20c6bcb6928b15b7f2d6e7fad1d"
	)
	l := testList(t, 120)
	var h hash.Hash
	checkpoint := func(e *core.Engine) {
		t.Helper()
		if e.EventSeq()%every != 0 {
			return
		}
		s, err := e.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot at event %d: %v", e.EventSeq(), err)
		}
		p := EncodeSnapshot(s)
		h.Write(binary.AppendUvarint(nil, uint64(len(p))))
		h.Write(p)
	}
	step := func(e *core.Engine) (core.EventRecord, bool) {
		t.Helper()
		rec, ok, err := e.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if ok {
			checkpoint(e)
		}
		return rec, ok
	}
	run := func(e *core.Engine, feed func(*core.Engine)) string {
		t.Helper()
		defer e.Close()
		h = sha256.New()
		checkpoint(e)
		feed(e)
		for _, ok := step(e); ok; _, ok = step(e) {
		}
		if _, err := e.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}

	e, err := core.NewEngine(l, newTestPolicy(t, "MoveToFront"))
	if err != nil {
		t.Fatal(err)
	}
	if got := run(e, func(*core.Engine) {}); got != wantStatic {
		t.Errorf("static MoveToFront run: snapshot digest %s, want %s", got, wantStatic)
	}

	// The dynamic run admits the same items in arrival order, as a tenant
	// would, stepping until each arrival commits.
	e, err = core.NewEngine(item.NewList(l.Dim), newTestPolicy(t, "FirstFit"), core.WithDynamicArrivals())
	if err != nil {
		t.Fatal(err)
	}
	got := run(e, func(e *core.Engine) {
		for _, k := range l.ArrivalOrder() {
			it := &l.Items[k]
			id, err := e.AppendArrival(it.Arrival, it.Departure, it.Size)
			if err != nil {
				t.Fatalf("AppendArrival: %v", err)
			}
			for rec, ok := step(e); !(rec.Class == core.EventArrival && rec.ItemID == id); rec, ok = step(e) {
				if !ok {
					t.Fatalf("engine went idle before arrival %d committed", id)
				}
			}
		}
	})
	if got != wantDyn {
		t.Errorf("dynamic FirstFit run: snapshot digest %s, want %s", got, wantDyn)
	}
}
