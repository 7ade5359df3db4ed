package persist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// TestSnapshotBytesGolden pins EncodeSnapshot's bytes at every checkpoint
// of one static and one dynamic run: a snapshot before the first event and
// after every 8th, each folded into a SHA-256 with its length. The expected
// digests are codec version 5's, so they fail when a snapshot's open bins
// or placements gain, lose or reorder an entry.
func TestSnapshotBytesGolden(t *testing.T) {
	const (
		every      = 8
		wantStatic = "c26601a6fe6aa6f4ef449689b8ea9a5a31f9d2d4588af5c72c23d269e067928b"
		wantDyn    = "2f10323e4bf40b2809ebdabdfd811f0a11071508c78f1e1114e2cb8a127fb794"
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

// TestSnapshotBytesPerPlacement bounds how fast a tenant's snapshot grows
// with its age. A dynamic FirstFit run at d = 2 admits 10⁴ items, about a
// dozen active at a time: inter-arrival times exponential with mean 1,
// durations 1 + Exp(mean 11), sizes uniform in [0.05, 0.35] in each
// dimension. Its encoded snapshot after the last arrival must take at most
// 2 B per placement. Codec version 4, which also stored each closed bin's
// record, took 2.78 B, and version 3, which also stored each placement's
// full record and each served item's outcome, 18.2 B.
func TestSnapshotBytesPerPlacement(t *testing.T) {
	const n, bound = 10_000, 2.0
	r := rand.New(rand.NewSource(1))
	e, err := core.NewEngine(item.NewList(2), newTestPolicy(t, "FirstFit"), core.WithDynamicArrivals())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	now := 0.0
	for k := 0; k < n; k++ {
		now += r.ExpFloat64()
		size := vector.Vector{0.05 + 0.3*r.Float64(), 0.05 + 0.3*r.Float64()}
		id, err := e.AppendArrival(now, now+1+11*r.ExpFloat64(), size)
		if err != nil {
			t.Fatalf("AppendArrival: %v", err)
		}
		for {
			rec, ok, err := e.Step()
			if err != nil || !ok {
				t.Fatalf("stepping to arrival %d: ok=%v err=%v", id, ok, err)
			}
			if rec.Class == core.EventArrival && rec.ItemID == id {
				break
			}
		}
	}
	s, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Placed) != n {
		t.Fatalf("the snapshot holds %d placements, want %d", len(s.Placed), n)
	}
	size := len(EncodeSnapshot(s))
	t.Logf("%d B for %d placements, %d bins opened, %d open", size, n, s.NextBinID, len(s.Bins))
	if per := float64(size) / n; per > bound {
		t.Errorf("the snapshot takes %.2f B per placement, want at most %g", per, bound)
	}
}
