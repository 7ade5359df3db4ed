package core

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// registryPolicies builds one fresh instance of every registry row.
func registryPolicies(seed int64) []Policy {
	ps := make([]Policy, len(policyTable))
	for i, row := range policyTable {
		ps[i] = row.make(seed)
	}
	return ps
}

// historyScenarios are the run configurations the history contracts are
// checked under: a clean run, crashes with retries on a capped fleet with an
// admission queue, and budgeted migration.
func historyScenarios() []struct {
	name string
	opts []Option
} {
	return []struct {
		name string
		opts []Option
	}{
		{"clean", nil},
		{"faults", faultyOpts()},
		{"migration", []Option{WithMigration(testConsolidator{}, 3, MigrationBudget{MaxMoves: 4})}},
	}
}

// stepRecords steps e to the end and returns its event records, its final
// Stats and its Result.
func stepRecords(t *testing.T, e *Engine) ([]EventRecord, EngineStats, *Result) {
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
	st := e.Stats()
	res, err := e.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return recs, st, res
}

// sameScalars fails unless every field of Result other than the three
// history fields is bit-identical in a and b. It walks the struct, so a
// scalar added to Result later is covered without touching the test.
func sameScalars(t *testing.T, label string, a, b *Result) {
	t.Helper()
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Slice, reflect.Map:
			continue
		case reflect.Float64:
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				t.Errorf("%s: %s = %v, default history gives %v", label, name, fb.Float(), fa.Float())
			}
		default:
			if !fa.Equal(fb) {
				t.Errorf("%s: %s = %v, default history gives %v", label, name, fb, fa)
			}
		}
	}
}

// TestNoHistoryKeepsEveryScalar pins WithHistory(nil): the run keeps no
// placements, bins or outcomes, and every scalar of its Result, every event
// record and Stats().Placements equal the default run's, for every registry
// policy at d = 1, 2 and 5, clean, under faults and with migration.
func TestNoHistoryKeepsEveryScalar(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		l := randomList(int64(40+d), 150, d, 20)
		for _, sc := range historyScenarios() {
			for i := range policyTable {
				name := policyTable[i].canonical
				label := name + "/" + sc.name
				ea, err := NewEngine(l, policyTable[i].make(3), sc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				eb, err := NewEngine(l, policyTable[i].make(3), append(slices.Clone(sc.opts), WithHistory(nil))...)
				if err != nil {
					t.Fatal(err)
				}
				recsA, stA, a := stepRecords(t, ea)
				recsB, stB, b := stepRecords(t, eb)
				if !slices.Equal(recsA, recsB) {
					t.Errorf("d=%d %s: event records differ without history", d, label)
				}
				if stA != stB || stB.Placements != len(a.Placements) {
					t.Errorf("d=%d %s: Stats %+v without history, %+v by default (%d placements kept)", d, label, stB, stA, len(a.Placements))
				}
				sameScalars(t, label, a, b)
				if b.Placements != nil || b.Bins != nil || b.Outcomes != nil {
					t.Errorf("d=%d %s: a run without history kept %d placements, %d bins, %d outcomes",
						d, label, len(b.Placements), len(b.Bins), len(b.Outcomes))
				}
			}
		}
	}
}

// recordingHistory keeps every record in arrival order.
type recordingHistory struct {
	placements []Placement
	bins       []BinUsage
	outcomes   map[int]Outcome
	repeated   []int // items whose outcome arrived more than once
}

func (h *recordingHistory) RecordPlacement(p Placement) { h.placements = append(h.placements, p) }
func (h *recordingHistory) RecordBin(u BinUsage)        { h.bins = append(h.bins, u) }
func (h *recordingHistory) RecordOutcome(id int, o Outcome) {
	if h.outcomes == nil {
		h.outcomes = make(map[int]Outcome)
	}
	if _, dup := h.outcomes[id]; dup {
		h.repeated = append(h.repeated, id)
	}
	h.outcomes[id] = o
}

// TestHistoryReceivesEveryRecord pins the seam both ways: a History passed
// through WithHistory receives exactly the records the default history
// keeps in Result (the same records once Finish's order is applied), each
// item's outcome once, and the Result it returns keeps none of them.
func TestHistoryReceivesEveryRecord(t *testing.T) {
	l := randomList(77, 200, 2, 20)
	for _, sc := range historyScenarios() {
		for _, p := range registryPolicies(5) {
			label := p.Name() + "/" + sc.name
			want := mustSimulate(t, l, p, sc.opts...)
			h := &recordingHistory{}
			got := mustSimulate(t, l, p, append(slices.Clone(sc.opts), WithHistory(h))...)
			sorted := Result{Placements: slices.Clone(h.placements), Bins: slices.Clone(h.bins)}
			sortRecords(&sorted)
			if !slices.Equal(sorted.Placements, want.Placements) || !slices.Equal(sorted.Bins, want.Bins) {
				t.Errorf("%s: history saw %d placements and %d bins, the default kept %d and %d, or their contents differ",
					label, len(h.placements), len(h.bins), len(want.Placements), len(want.Bins))
			}
			if !reflect.DeepEqual(h.outcomes, want.Outcomes) || len(want.Outcomes) != l.Len() {
				t.Errorf("%s: history saw %d outcomes, the default kept %d of %d items, or they differ",
					label, len(h.outcomes), len(want.Outcomes), l.Len())
			}
			if len(h.repeated) > 0 {
				t.Errorf("%s: outcomes recorded more than once for items %v", label, h.repeated)
			}
			if got.Placements != nil || got.Bins != nil || got.Outcomes != nil {
				t.Errorf("%s: a run with its own history also filled Result", label)
			}
			sameScalars(t, label, want, got)
		}
	}
}

// TestInstanceSimulateMatchesSimulate runs every registry policy in turn on
// one shared Instance, clean and under faults, and requires each Result to
// equal Simulate's over the list.
func TestInstanceSimulateMatchesSimulate(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		l := randomList(int64(90+d), 150, d, 20)
		in, err := NewInstance(l)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range [][]Option{nil, faultyOpts()} {
			for _, p := range registryPolicies(9) {
				want := mustSimulate(t, l, p, opts...)
				got, err := in.Simulate(p, opts...)
				if err != nil {
					t.Fatalf("d=%d %s: Instance.Simulate: %v", d, p.Name(), err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("d=%d %s: Instance.Simulate differs from Simulate:\n%s\n%s", d, p.Name(), got, want)
				}
			}
		}
	}
}

// TestInstanceConcurrentRuns shares one Instance between two goroutines,
// each running every registry policy with its own policy values. Runs read
// the Instance's list and arrival order and write neither; they pass their
// spare bins on through the Instance, under its lock. Under -race the test
// fails if a run writes what the Instance shares unguarded, or if two live
// runs ever share a bin.
func TestInstanceConcurrentRuns(t *testing.T) {
	l := randomList(123, 200, 2, 20)
	in, err := NewInstance(l)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Result, len(policyTable))
	for i, p := range registryPolicies(4) {
		want[i] = mustSimulate(t, l, p)
	}
	var wg sync.WaitGroup
	errs := make([][]string, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range registryPolicies(4) {
				got, err := in.Simulate(p)
				if err != nil {
					errs[g] = append(errs[g], err.Error())
				} else if !reflect.DeepEqual(got, want[i]) {
					errs[g] = append(errs[g], p.Name()+": result differs from Simulate's")
				}
			}
		}()
	}
	wg.Wait()
	for g, es := range errs {
		for _, e := range es {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}

// TestInstanceRefusals: NewInstance refuses every list Simulate refuses,
// with Simulate's error, and an Instance refuses a dynamic run.
func TestInstanceRefusals(t *testing.T) {
	dup := item.NewList(1)
	dup.Add(0, 1, v(0.5))
	dup.Add(0, 2, v(0.5))
	dup.Items[1].ID = 0
	tooBig := item.NewList(2)
	tooBig.Add(0, 1, v(0.5, 1.5))
	backwards := item.NewList(1)
	backwards.Add(0, 1, v(0.5))
	backwards.Items[0].Departure = -1
	for name, l := range map[string]*item.List{
		"empty":                  item.NewList(2),
		"no-dim":                 {Dim: 0, Items: []item.Item{{ID: 0, Arrival: 0, Departure: 1}}},
		"duplicate":              dup,
		"oversized":              tooBig,
		"departs-before-arrival": backwards,
	} {
		_, simErr := Simulate(l, NewFirstFit())
		_, inErr := NewInstance(l)
		if simErr == nil || inErr == nil || inErr.Error() != simErr.Error() {
			t.Errorf("%s: NewInstance error %v, Simulate error %v", name, inErr, simErr)
		}
	}
	in, err := NewInstance(randomList(5, 20, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Simulate(NewFirstFit(), WithDynamicArrivals()); err == nil || !strings.Contains(err.Error(), "WithDynamicArrivals") {
		t.Errorf("Instance.Simulate with WithDynamicArrivals: err = %v, want a refusal naming the option", err)
	}
}

// TestSnapshotRefusesRunWithoutHistory: a snapshot carries the partial
// Result, so a run whose history is not the default cannot be checkpointed,
// and a restore cannot take another history.
func TestSnapshotRefusesRunWithoutHistory(t *testing.T) {
	l := randomList(8, 60, 2, 10)
	for _, h := range []History{nil, &recordingHistory{}} {
		e, err := NewEngine(l, NewFirstFit(), WithHistory(h))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Snapshot(); err == nil || !strings.Contains(err.Error(), "history") {
			t.Errorf("Snapshot of a run with history %T: err = %v, want a refusal", h, err)
		}
		e.Close()
	}
	e, err := NewEngine(l, NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreEngine(l, NewFirstFit(), snap, WithHistory(nil)); err == nil || !strings.Contains(err.Error(), "history") {
		t.Errorf("RestoreEngine with WithHistory(nil): err = %v, want a refusal", err)
	}
}

// TestRestoredStatsCountPlacements: Stats().Placements is an engine
// counter, so a restored engine must take it from the snapshot's partial
// Result; the server's tenant status reads it after every recovery.
func TestRestoredStatsCountPlacements(t *testing.T) {
	l := randomList(31, 120, 2, 15)
	e, err := NewEngine(l, NewBestFit(MaxLoad()))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 90; i++ {
		if _, _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreEngine(l, NewBestFit(MaxLoad()), snap)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, want := r.Stats(), e.Stats()
	if got != want || want.Placements == 0 {
		t.Errorf("restored Stats %+v, uninterrupted %+v", got, want)
	}
}

// TestRestoredClockMatchesUninterrupted: a run restored from a snapshot
// taken after any event reports the uninterrupted run's clock, the time of
// the last committed event, which the snapshot does not carry.
func TestRestoredClockMatchesUninterrupted(t *testing.T) {
	l := randomList(32, 60, 2, 15)
	e, err := NewEngine(l, NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for {
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r, err := RestoreEngine(l, NewFirstFit(), snap)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.Stats().Clock, e.Stats().Clock; got != want {
			t.Fatalf("restored after event %d: clock %v, uninterrupted %v", e.EventSeq(), got, want)
		}
		r.Close()
		if _, ok, err := e.Step(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
}

// TestRestoredEngineRefusesPastArrival: after a departure at t = 5 has
// committed, an arrival at 4.5 is in the engine's past, for a dynamic
// engine restored from a snapshot as for the live one.
func TestRestoredEngineRefusesPastArrival(t *testing.T) {
	live, err := NewEngine(item.NewList(1), NewFirstFit(), WithDynamicArrivals())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if _, err := appendAndPlace(live, item.Item{Arrival: 0, Departure: 5, Size: vector.Of(0.5)}); err != nil {
		t.Fatal(err)
	}
	if rec, ok, err := live.Step(); err != nil || !ok || rec.Class != EventDeparture || rec.Time != 5 {
		t.Fatalf("Step = %+v, %v, %v; want the departure at 5", rec, ok, err)
	}
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	l := item.NewList(1)
	l.Add(0, 5, vector.Of(0.5))
	restored, err := RestoreEngine(l, NewFirstFit(), snap, WithDynamicArrivals())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for name, e := range map[string]*Engine{"live": live, "restored": restored} {
		if _, err := e.AppendArrival(4.5, 6, vector.Of(0.5)); err == nil || !strings.Contains(err.Error(), "in the engine's past") {
			t.Errorf("%s engine: AppendArrival at 4.5 after the departure at 5: err %v, want it refused as in the engine's past", name, err)
		}
	}
}

// allocatedBytes returns the fewest heap bytes one call of f allocated over
// three calls.
func allocatedBytes(f func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestCostOnlyRunBytesPerPlacement pins what a static run without history
// allocates per placement on a warm Instance: nothing. On the churn instance
// the bins stay open while items come and go; on the sequential instance
// every item opens a bin and closes it again, and the run reopens the bin
// it closed, or one an earlier run over the Instance handed on. As in
// TestBinOpenCloseSteadyStateAllocs, the difference of two run lengths
// cancels the setup. A placement or bin record kept on this path costs 40
// bytes per item, well over the slack, and so does a Bin allocated per
// opening.
func TestCostOnlyRunBytesPerPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting run")
	}
	const slack = 4.0 // bytes per placement
	perItem := func(mk func(n int) *item.List, short, long int) float64 {
		cost := func(n int) uint64 {
			in, err := NewInstance(mk(n))
			if err != nil {
				t.Fatal(err)
			}
			p := NewFirstFit()
			return allocatedBytes(func() {
				if _, err := in.Simulate(p, WithHistory(nil)); err != nil {
					t.Fatal(err)
				}
			})
		}
		return float64(cost(long)-cost(short)) / float64(long-short)
	}
	for _, d := range []int{1, 2, 5} {
		churn := perItem(func(n int) *item.List { return churnHotPathInstance(d, 4, 16, n) }, 256, 1280)
		if churn > slack {
			t.Errorf("d=%d churn: %.1f bytes per extra placement without history, want 0 (+%v slack)", d, churn, slack)
		}
		sequential := perItem(func(n int) *item.List {
			l := item.NewList(d)
			for i := 0; i < n; i++ {
				l.Add(float64(i), float64(i)+0.5, vector.Uniform(d, 0.9))
			}
			return l
		}, 256, 1280)
		if sequential > slack {
			t.Errorf("d=%d sequential: %.1f bytes per placement without history, want 0 (+%v slack)", d, sequential, slack)
		}
	}
}
