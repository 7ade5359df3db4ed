package core

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// stepAll drives e to completion, returning the committed records and result.
func stepAll(t *testing.T, e *Engine) ([]EventRecord, *Result) {
	t.Helper()
	var recs []EventRecord
	for {
		rec, ok, err := e.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return recs, res
}

func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// TestSnapshotRestoreEveryEventIndex is the core crash-consistency contract:
// a snapshot taken between ANY two events, restored into a fresh engine (and
// fresh policy instance), must regenerate the remaining event stream bit for
// bit and finish with a byte-identical Result. It runs each policy twice:
// over a static list, and in the dynamic mode a placement server's tenant
// runs in, with the same items appended up front in arrival order.
func TestSnapshotRestoreEveryEventIndex(t *testing.T) {
	l := randomList(42, 40, 2, 20)
	policies := append(append(StandardPolicies(7), NewHarmonicFit(3)), FragmentationAwarePolicies(7)...)
	// start returns an engine over l's items: over l itself in the static
	// mode, and in the dynamic mode over a new list it grows by appending
	// them.
	start := func(t *testing.T, p Policy, dynamic bool) *Engine {
		t.Helper()
		if !dynamic {
			e, err := NewEngine(l, p)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			return e
		}
		e, err := NewEngine(item.NewList(l.Dim), p, WithDynamicArrivals())
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		for _, k := range l.ArrivalOrder() {
			it := &l.Items[k]
			if _, err := e.AppendArrival(it.Arrival, it.Departure, it.Size); err != nil {
				t.Fatalf("AppendArrival: %v", err)
			}
		}
		return e
	}
	for _, p := range policies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			for _, mode := range []struct {
				name    string
				dynamic bool
				opts    []Option
			}{
				{"static", false, nil},
				{"dynamic", true, []Option{WithDynamicArrivals()}},
			} {
				t.Run(mode.name, func(t *testing.T) {
					// Reference: uninterrupted run.
					refRecs, refRes := stepAll(t, start(t, p, mode.dynamic))
					wantJSON := resultJSON(t, refRes)

					// Second pass: snapshot before every event, restore each
					// snapshot into a fresh engine, run it out, compare.
					p2, err := NewPolicy(p.Name(), 7)
					if err != nil {
						t.Fatalf("NewPolicy: %v", err)
					}
					e := start(t, p2, mode.dynamic)
					defer e.Close()
					var snaps []*Snapshot
					for {
						s, err := e.Snapshot()
						if err != nil {
							t.Fatalf("Snapshot at event %d: %v", e.EventSeq(), err)
						}
						snaps = append(snaps, s)
						_, ok, err := e.Step()
						if err != nil {
							t.Fatalf("Step: %v", err)
						}
						if !ok {
							break
						}
					}
					if got, want := len(snaps), len(refRecs)+1; got != want {
						t.Fatalf("took %d snapshots, want %d", got, want)
					}
					if _, err := e.Finish(); err != nil {
						t.Fatalf("Finish: %v", err)
					}

					for k, s := range snaps {
						pk, err := NewPolicy(p.Name(), 999) // wrong seed on purpose: state codec must override it
						if err != nil {
							t.Fatalf("NewPolicy: %v", err)
						}
						re, err := RestoreEngine(e.list, pk, s, mode.opts...)
						if err != nil {
							t.Fatalf("RestoreEngine at event %d: %v", k, err)
						}
						recs, res := stepAll(t, re)
						if got, want := len(recs), len(refRecs)-k; got != want {
							t.Fatalf("restore at %d replayed %d events, want %d", k, got, want)
						}
						for i, rec := range recs {
							if rec != refRecs[k+i] {
								t.Fatalf("restore at %d: event %d diverged:\n got %+v\nwant %+v", k, k+i, rec, refRecs[k+i])
							}
						}
						if got := resultJSON(t, res); got != wantJSON {
							t.Fatalf("restore at %d: result diverged:\n got %s\nwant %s", k, got, wantJSON)
						}
					}
				})
			}
		})
	}
}

// TestSnapshotRoundTripFaultFree covers the paper's fault-free model (no
// injector, no admission control) for a couple of policies.
func TestSnapshotRoundTripFaultFree(t *testing.T) {
	l := randomList(7, 60, 3, 15)
	for _, name := range []string{"FirstFit", "BestFit", "MoveToFront"} {
		p, err := NewPolicy(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := mustSimulate(t, l, p)
		want := resultJSON(t, ref)

		p2, _ := NewPolicy(name, 1)
		e, err := NewEngine(l, p2)
		if err != nil {
			t.Fatal(err)
		}
		// Step halfway, snapshot, restore, finish both ways.
		for i := 0; i < 50; i++ {
			if _, ok, err := e.Step(); err != nil || !ok {
				t.Fatalf("Step %d: ok=%v err=%v", i, ok, err)
			}
		}
		s, err := e.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		e.Close()

		p3, _ := NewPolicy(name, 1)
		re, err := RestoreEngine(l, p3, s)
		if err != nil {
			t.Fatalf("RestoreEngine: %v", err)
		}
		_, res := stepAll(t, re)
		if got := resultJSON(t, res); got != want {
			t.Fatalf("%s: restored result diverged:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestSnapshotRoundTripMaxItemID: a departure entry packs the item ID into
// the high half of its 64-bit key, and RestoreEngine queues one for each
// active item. A list holding the largest valid ID, active at a mid-run
// snapshot, must survive a Snapshot/RestoreEngine round trip, and the next
// ID must be refused.
func TestSnapshotRoundTripMaxItemID(t *testing.T) {
	l := randomList(3, 12, 2, 10)
	// Arriving first and departing last, the item's departure is pending at
	// any mid-run snapshot.
	l.Items[5].ID, l.Items[5].Arrival, l.Items[5].Departure = item.MaxID, 0, 200
	want := resultJSON(t, mustSimulate(t, l, NewFirstFit()))
	e, err := NewEngine(l, NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, ok, err := e.Step(); err != nil || !ok {
			t.Fatalf("Step %d: ok=%v err=%v", i, ok, err)
		}
	}
	s, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if !slices.ContainsFunc(s.Bins, func(b BinSnapshot) bool { return slices.Contains(b.ActiveIDs, item.MaxID) }) {
		t.Fatal("the item with ID item.MaxID is not active in the snapshot")
	}
	re, err := RestoreEngine(l, NewFirstFit(), s)
	if err != nil {
		t.Fatalf("RestoreEngine: %v", err)
	}
	if _, res := stepAll(t, re); resultJSON(t, res) != want {
		t.Fatal("restored result diverged from the uninterrupted run")
	}

	l.Items[5].ID = item.MaxID + 1
	if _, err := NewEngine(l, NewFirstFit()); err == nil {
		t.Fatal("item ID past item.MaxID accepted")
	}
}

// statefulNoCodec is a policy with per-run state and no PolicyStateCodec.
type statefulNoCodec struct {
	FirstFit
	n int
}

func (s *statefulNoCodec) Name() string { return "stateful-no-codec" }
func (s *statefulNoCodec) Select(req Request, open []*Bin) *Bin {
	s.n++
	return s.FirstFit.Select(req, open)
}

func TestSnapshotRefusesStatefulPolicyWithoutCodec(t *testing.T) {
	l := randomList(1, 10, 2, 10)
	e, err := NewEngine(l, &statefulNoCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Snapshot(); err == nil || !strings.Contains(err.Error(), "PolicyStateCodec") {
		t.Fatalf("Snapshot on stateful codec-less policy: err=%v, want PolicyStateCodec error", err)
	}
}

func TestSnapshotAfterFinishFails(t *testing.T) {
	l := randomList(2, 5, 2, 10)
	e, err := NewEngine(l, NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	stepAll(t, e)
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("Snapshot after Finish succeeded")
	}
}

// TestRestoreRefusesNonCanonicalLoadSums: restore checks each open bin's
// load sums by their canonical bytes, so a payload that holds the right sum
// in another form is refused. Here item 1 is so small that its mantissa
// sits in limbs item 0 does not touch, and it departs first; engines whose
// payloads were not canonical wrote bin 0's sum 0.5 with item 1's limbs, now
// zero, still in its window (the bytes below are the ones such an engine
// wrote), and a sum of many items could leave limbs uncarried. Each
// hand-built payload must be refused as a load-sum disagreement, while the
// canonical snapshot restores and finishes as the uninterrupted run does.
func TestRestoreRefusesNonCanonicalLoadSums(t *testing.T) {
	l := list(t, 1, []float64{0, 10, 0.5}, []float64{0, 1, 1e-12}, []float64{2, 3, 0.9})
	want := resultJSON(t, mustSimulate(t, l, NewFirstFit()))
	e, err := NewEngine(l, NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 3; i++ {
		if _, ok, err := e.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	var half vector.Acc
	half.Add(0.5)
	// 0.5 is 2^17 in limb 33.
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"zero limbs at the window's edge", []byte{1, 30, 0, 33, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0}},
		{"uncarried limb pair", limbPayload(32, 1<<32, 1<<17-1)},
	} {
		old, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(old.Bins) != 1 || string(old.Bins[0].Acc[0]) != string(half.AppendBinary(nil)) {
			t.Fatalf("the snapshot should hold bin 0's sum 0.5 canonically, not %v", old.Bins)
		}
		old.Bins[0].Acc[0] = c.payload
		if r, err := RestoreEngine(l, NewFirstFit(), old); err == nil {
			r.Close()
			t.Errorf("%s: RestoreEngine accepted a non-canonical load sum", c.name)
		} else if !strings.Contains(err.Error(), "disagree") {
			t.Errorf("%s: error %q does not name the load-sum check", c.name, err)
		}
	}
	canonical, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreEngine(l, NewFirstFit(), canonical)
	if err != nil {
		t.Fatalf("RestoreEngine: %v", err)
	}
	if _, res := stepAll(t, r); resultJSON(t, res) != want {
		t.Errorf("restored run finished with %s, want %s", resultJSON(t, res), want)
	}
}

// TestRestoreKeepsSpilledAccumulatorsApart: item sizes below the
// accumulator's two-word frame spill two bins' sums into limbs, and no two
// bins may share them: after restoring both bins and packing into the first
// again, the engine must snapshot as the uninterrupted run does and finish
// as it does.
func TestRestoreKeepsSpilledAccumulatorsApart(t *testing.T) {
	l := list(t, 2,
		[]float64{0, 10, 0.5, 1e-35},
		[]float64{0, 10, 0.6, 1e-36},
		[]float64{1, 10, 0.3, 0.1},
	)
	want := resultJSON(t, mustSimulate(t, l, NewFirstFit()))
	steps := func(e *Engine, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, ok, err := e.Step(); err != nil || !ok {
				t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
			}
		}
	}
	ref, err := NewEngine(l, NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	steps(ref, 2)
	snap, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Bins) != 2 {
		t.Fatalf("the test needs two open bins, got %d", len(snap.Bins))
	}
	steps(ref, 1)
	after, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreEngine(l, NewFirstFit(), snap)
	if err != nil {
		t.Fatalf("RestoreEngine: %v", err)
	}
	steps(r, 1)
	got, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, after) {
		t.Errorf("restored engine snapshots as\n %+v\nwant %+v", got.Bins, after.Bins)
	}
	if _, res := stepAll(t, r); resultJSON(t, res) != want {
		t.Errorf("restored run finished with %s, want %s", resultJSON(t, res), want)
	}
}

// limbPayload builds a vector.Acc payload in its raw form: the limbs from
// index lo up, each an 8-byte little-endian integer.
func limbPayload(lo int, limbs ...int64) []byte {
	hi := lo + len(limbs) - 1
	p := []byte{1, byte(lo), byte(lo >> 8), byte(hi), byte(hi >> 8)}
	for _, v := range limbs {
		p = binary.LittleEndian.AppendUint64(p, uint64(v))
	}
	return p
}

// TestRestoreRejectsInconsistentSnapshots corrupts a valid snapshot in every
// structural way the restore path validates and checks each one surfaces as
// an error (never a panic, never a silently wrong engine).
func TestRestoreRejectsInconsistentSnapshots(t *testing.T) {
	l := randomList(5, 30, 2, 20)
	take := func(t *testing.T) *Snapshot {
		t.Helper()
		p, _ := NewPolicy("MoveToFront", 1)
		e, err := NewEngine(l, p)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 25; i++ {
			if _, ok, err := e.Step(); err != nil || !ok {
				t.Fatalf("Step %d: ok=%v err=%v", i, ok, err)
			}
		}
		s, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Bins) == 0 || s.NextBinID < len(s.Bins)+2 || s.Served == 0 || s.ArrivalIdx == s.Items {
			t.Fatal("snapshot not interesting enough for corruption tests")
		}
		return s
	}

	cases := []struct {
		name    string
		mutate  func(*Snapshot)
		errPart string
	}{
		{"policy-mismatch", func(s *Snapshot) { s.PolicyName = "FirstFit" }, "policy mismatch"},
		{"dim-mismatch", func(s *Snapshot) { s.Dim = 3 }, "shape mismatch"},
		{"items-mismatch", func(s *Snapshot) { s.Items++ }, "shape mismatch"},
		{"arrival-overflow", func(s *Snapshot) { s.ArrivalIdx = s.Items + 1 }, "arrival index"},
		{"negative-counter", func(s *Snapshot) { s.EventSeq = -1 }, "negative progress counter"},
		{"bins-out-of-order", func(s *Snapshot) {
			if len(s.Bins) < 2 {
				s.Bins = append(s.Bins, s.Bins[0])
			}
			s.Bins[0], s.Bins[1] = s.Bins[1], s.Bins[0]
		}, "out of order"},
		{"bin-id-overflow", func(s *Snapshot) { s.Bins[len(s.Bins)-1].ID = s.NextBinID }, "next bin ID"},
		{"unknown-active-item", func(s *Snapshot) { s.Bins[0].ActiveIDs[0] = 99999 }, "unknown item"},
		{"empty-open-bin", func(s *Snapshot) { s.Bins[0].ActiveIDs = nil }, "open but empty"},
		{"acc-dim-mismatch", func(s *Snapshot) { s.Bins[0].Acc = s.Bins[0].Acc[:1] }, "accumulator dimensions"},
		{"acc-limb-flip", func(s *Snapshot) {
			blob := s.Bins[0].Acc[0]
			blob[len(blob)-1] ^= 0x40
		}, "disagree"},
		{"acc-garbage", func(s *Snapshot) { s.Bins[0].Acc[0] = []byte{1, 2} }, "disagree"},
		{"policy-state-garbage", func(s *Snapshot) { s.PolicyState = []byte{0xFF, 0xFF, 0xFF} }, "MoveToFront state"},
		{"policy-state-unknown-bin", func(s *Snapshot) {
			p, _ := NewPolicy("MoveToFront", 1)
			mf := p.(*MoveToFront)
			// A syntactically valid state naming a bin that is not open.
			mf.Reset()
			s.PolicyState = []byte{1, 0xCE, 0x10} // count=1, varint id=1063
		}, "unknown bin"},
		{"policy-state-misses-open-bin", func(s *Snapshot) {
			s.PolicyState = []byte{0} // a well-formed, empty recency list
		}, "recency list covers 0 bins"},
		{"peak-below-open", func(s *Snapshot) { s.MaxConcurrentBins = 0 }, "peak of 0 open bins"},
		{"cost-negative", func(s *Snapshot) { s.Cost = -1 }, "negative or not finite"},
		{"cost-nan", func(s *Snapshot) { s.Cost = math.NaN() }, "negative or not finite"},
		{"placement-extra", func(s *Snapshot) { s.Placed = append(s.Placed, 0) }, "placements for"},
		{"placement-missing", func(s *Snapshot) { s.Placed = s.Placed[1:] }, "placements for"},
		{"placement-past-next-bin", func(s *Snapshot) { s.Placed[0] = 12345 }, "past the next bin to open"},
		{"placement-wrong-bin", func(s *Snapshot) {
			// An active item's placement into a bin opened before it,
			// pointed at another such bin, so the bins open as before.
			order, opened := l.ArrivalOrder(), 0
			for k, bin := range s.Placed {
				id := l.Items[order[k]].ID
				active := slices.ContainsFunc(s.Bins, func(b BinSnapshot) bool { return slices.Contains(b.ActiveIDs, id) })
				if bin == opened {
					opened++
				} else if opened >= 2 && active {
					s.Placed[k] = (bin + 1) % opened
					return
				}
			}
		}, "but its placement names bin"},
		{"bins-opened-mismatch", func(s *Snapshot) { s.NextBinID++ }, "placements open"},
		{"active-not-committed", func(s *Snapshot) {
			// The next arrival, not committed yet, active in an open bin
			// whose sums include it.
			it := &l.Items[l.ArrivalOrder()[s.ArrivalIdx]]
			b := &s.Bins[0]
			b.ActiveIDs = append(b.ActiveIDs, it.ID)
			for j := range b.Acc {
				var acc vector.Acc
				for _, id := range b.ActiveIDs {
					acc.Add(l.Items[id].Size[j]) // l.Add numbers items by index
				}
				b.Acc[j] = acc.AppendBinary(nil)
			}
		}, "items served and"},
		{"served-count", func(s *Snapshot) { s.Served++ }, "left their bins"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := take(t)
			tc.mutate(s)
			p, _ := NewPolicy("MoveToFront", 1)
			e, err := RestoreEngine(l, p, s)
			if err == nil {
				e.Close()
				t.Fatalf("RestoreEngine accepted corrupted snapshot")
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}
}

// TestSnapshotRefusesRunsThatResumeByReplay: Snapshot and RestoreEngine
// refuse a run configured with faults, a bin cap, an admission queue or
// enabled migration, and the error names the option; such a run resumes by
// re-stepping its op log instead. A disabled WithMigration configures
// nothing, so that run still snapshots.
func TestSnapshotRefusesRunsThatResumeByReplay(t *testing.T) {
	l := randomList(5, 30, 2, 20)
	step := func(e *Engine) {
		t.Helper()
		for i := 0; i < 10; i++ {
			if _, ok, err := e.Step(); err != nil || !ok {
				t.Fatalf("Step %d: ok=%v err=%v", i, ok, err)
			}
		}
	}
	clean, err := NewEngine(l, NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	step(clean)
	snap, err := clean.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clean.Close()

	for _, tc := range []struct {
		option string
		opts   []Option
	}{
		{"WithFaults", []Option{WithFaults(hashInj{seed: 11, mean: 9}, fixedRetry{wait: 1.5})}},
		{"WithMaxBins", []Option{WithMaxBins(3)}},
		{"WithAdmissionQueue", []Option{WithAdmissionQueue(6)}},
		{"WithMigration", []Option{WithMigration(testConsolidator{}, 3, MigrationBudget{MaxMoves: 4})}},
	} {
		e, err := NewEngine(l, NewFirstFit(), tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		step(e)
		if _, err := e.Snapshot(); err == nil || !strings.Contains(err.Error(), tc.option) {
			t.Errorf("Snapshot under %s: err = %v, want a refusal naming it", tc.option, err)
		}
		e.Close()
		re, err := RestoreEngine(l, NewFirstFit(), snap, tc.opts...)
		if err == nil {
			re.Close()
		}
		if err == nil || !strings.Contains(err.Error(), tc.option) {
			t.Errorf("RestoreEngine under %s: err = %v, want a refusal naming it", tc.option, err)
		}
	}

	e, err := NewEngine(l, NewFirstFit(), WithMigration(testConsolidator{}, 3, MigrationBudget{}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	step(e)
	if _, err := e.Snapshot(); err != nil {
		t.Errorf("Snapshot under a disabled WithMigration: %v", err)
	}
}
