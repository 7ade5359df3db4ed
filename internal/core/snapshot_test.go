package core

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"dvbp/internal/item"
)

// snapshotOpts is the option set the snapshot tests run under: faults with a
// retry ladder plus capped admission with a queue, so snapshots carry pending
// crashes, retries, and wait-queue entries — every piece of engine state.
func snapshotOpts() []Option {
	return []Option{
		WithFaults(hashInj{seed: 11, mean: 9}, fixedRetry{wait: 1.5}),
		WithMaxBins(3),
		WithAdmissionQueue(6),
	}
}

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
// bit and finish with a byte-identical Result.
func TestSnapshotRestoreEveryEventIndex(t *testing.T) {
	l := randomList(42, 40, 2, 20)
	policies := append(append(StandardPolicies(7), NewHarmonicFit(3)), FragmentationAwarePolicies(7)...)
	for _, p := range policies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			// Reference: uninterrupted run.
			ref, err := NewEngine(l, p, snapshotOpts()...)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			refRecs, refRes := stepAll(t, ref)
			wantJSON := resultJSON(t, refRes)

			// Second pass: snapshot before every event, restore each snapshot
			// into a fresh engine, run it out, compare.
			p2, err := NewPolicy(p.Name(), 7)
			if err != nil {
				t.Fatalf("NewPolicy: %v", err)
			}
			e, err := NewEngine(l, p2, snapshotOpts()...)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
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
				re, err := RestoreEngine(l, pk, s, snapshotOpts()...)
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

// TestSnapshotRoundTripMaxItemID: the departure queue packs the item ID into
// the high half of its 64-bit key, and RestoreEngine checks the key against
// the item. A list holding the largest valid ID must survive a mid-run
// Snapshot/RestoreEngine round trip, and the next ID must be refused.
func TestSnapshotRoundTripMaxItemID(t *testing.T) {
	l := randomList(3, 12, 2, 10)
	// Arriving first and departing last, the item is in the departure queue
	// at any mid-run snapshot.
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
	if !slices.ContainsFunc(s.Departures, func(d DepartureSnapshot) bool { return d.ItemID == item.MaxID }) {
		t.Fatal("snapshot holds no departure of the item with ID item.MaxID")
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

// TestRestoreRejectsInconsistentSnapshots corrupts a valid snapshot in every
// structural way the restore path validates and checks each one surfaces as
// an error (never a panic, never a silently wrong engine).
func TestRestoreRejectsInconsistentSnapshots(t *testing.T) {
	l := randomList(5, 30, 2, 20)
	take := func(t *testing.T) *Snapshot {
		t.Helper()
		p, _ := NewPolicy("MoveToFront", 1)
		e, err := NewEngine(l, p, snapshotOpts()...)
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
		if len(s.Bins) == 0 || len(s.Departures) == 0 {
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
		{"nil-result", func(s *Snapshot) { s.Result = nil }, "missing partial result"},
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
		{"packed-undercount", func(s *Snapshot) { s.Bins[0].Packed = 0 }, "packed"},
		{"acc-dim-mismatch", func(s *Snapshot) { s.Bins[0].Acc = s.Bins[0].Acc[:1] }, "accumulator dimensions"},
		{"acc-limb-flip", func(s *Snapshot) {
			blob := s.Bins[0].Acc[0]
			blob[len(blob)-1] ^= 0x40
		}, "disagree"},
		{"acc-garbage", func(s *Snapshot) { s.Bins[0].Acc[0] = []byte{1, 2} }, "disagree"},
		{"departure-unknown-item", func(s *Snapshot) { s.Departures[0].ItemID = 99999 }, "unknown item"},
		{"retry-bad-seq", func(s *Snapshot) {
			s.Retries = append(s.Retries, RetrySnapshot{Time: 1, Seq: s.RetrySeq + 1, ItemID: l.Items[0].ID, Attempt: 1})
		}, "sequence"},
		{"queue-unknown-item", func(s *Snapshot) {
			s.WaitQueue = append(s.WaitQueue, QueuedSnapshot{ItemID: 99999, Attempt: 0})
		}, "unknown item"},
		{"attempts-unknown-item", func(s *Snapshot) { s.Attempts = map[int]int{99999: 1} }, "unknown item"},
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := take(t)
			tc.mutate(s)
			p, _ := NewPolicy("MoveToFront", 1)
			e, err := RestoreEngine(l, p, s, snapshotOpts()...)
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

// TestRestoreRejectsCrashesWithoutInjector: a snapshot with pending crash
// events cannot be restored into a fault-free configuration.
func TestRestoreRejectsCrashesWithoutInjector(t *testing.T) {
	l := randomList(5, 30, 2, 20)
	p, _ := NewPolicy("FirstFit", 1)
	e, err := NewEngine(l, p, snapshotOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var s *Snapshot
	for {
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Crashes) > 0 {
			s = snap
			break
		}
		if _, ok, err := e.Step(); err != nil || !ok {
			t.Fatalf("never saw a pending crash (ok=%v err=%v)", ok, err)
		}
	}
	p2, _ := NewPolicy("FirstFit", 1)
	if _, err := RestoreEngine(l, p2, s); err == nil || !strings.Contains(err.Error(), "without fault injection") {
		t.Fatalf("RestoreEngine without injector: err=%v", err)
	}
}
