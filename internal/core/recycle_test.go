package core

import (
	"reflect"
	"slices"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// closeReader reads every bin a close callback hands it, the way an
// observer may during the callbacks of the closing event, and checks what
// it reads against the run's own records: the opening time AfterPack saw
// for the bin's ID, the evicted items ItemEvicted names, and a fresh exact
// sum of the sizes of the items the bin reports. It also checks that every
// opened bin starts empty, and counts the distinct structs the run used.
type closeReader struct {
	BaseObserver
	BaseFailureObserver
	t     *testing.T
	label string
	sizes map[int]vector.Vector

	openedAt map[int]float64 // bin ID -> opening time, from AfterPack
	closedAt map[int]float64 // bin ID -> closing time, from BinClosed
	closing  int             // ID of the bin the last BinClosed reported
	crashed  []int           // its items, as BinCrashed read them
	evicted  int             // ItemEvicted callbacks for the last crash
	structs  map[*Bin]bool
	crashes  int
	drains   int
}

func newCloseReader(t *testing.T, label string, l *item.List) *closeReader {
	o := &closeReader{t: t, label: label, sizes: map[int]vector.Vector{}, closing: -1,
		openedAt: map[int]float64{}, closedAt: map[int]float64{}, structs: map[*Bin]bool{}}
	for _, it := range l.Items {
		o.sizes[it.ID] = it.Size
	}
	return o
}

// read checks b against the records for its ID and returns its items.
func (o *closeReader) read(cb string, b *Bin) []int {
	o.t.Helper()
	if at, ok := o.openedAt[b.ID]; !ok || at != b.OpenedAt {
		o.t.Errorf("%s: %s: bin %d reports OpenedAt %v, AfterPack saw it open at %v (known %v)", o.label, cb, b.ID, b.OpenedAt, at, ok)
	}
	ids := b.ActiveItemIDs()
	load := b.Load()
	for j := range load {
		var a vector.Acc
		for _, id := range ids {
			a.Add(o.sizes[id][j])
		}
		if got, want := load[j], a.Round(); got != want {
			o.t.Errorf("%s: %s: bin %d load[%d] = %v, its items %v sum to %v", o.label, cb, b.ID, j, got, ids, want)
		}
	}
	return ids
}

func (o *closeReader) AfterPack(req Request, b *Bin, opened bool) {
	o.t.Helper()
	if !opened {
		return
	}
	o.structs[b] = true
	o.openedAt[b.ID] = req.Arrival
	if b.OpenedAt != req.Arrival || b.PackedItems() != 1 || !slices.Equal(b.ActiveItemIDs(), []int{req.ID}) ||
		!slices.Equal(b.Load(), req.Size) {
		o.t.Errorf("%s: bin %d opened for item %d at %v is not fresh: %v, packed %d", o.label, b.ID, req.ID, req.Arrival, b, b.PackedItems())
	}
}

func (o *closeReader) BinClosed(b *Bin, t float64) {
	o.t.Helper()
	o.closing, o.crashed = b.ID, nil
	o.closedAt[b.ID] = t
	o.read("BinClosed", b)
}

func (o *closeReader) BinCrashed(b *Bin, t float64, evicted int) {
	o.t.Helper()
	o.crashes++
	if b.ID != o.closing {
		o.t.Errorf("%s: BinCrashed reports bin %d, BinClosed bin %d", o.label, b.ID, o.closing)
	}
	o.crashed, o.evicted = o.read("BinCrashed", b), 0
	if len(o.crashed) != evicted || evicted == 0 {
		o.t.Errorf("%s: crashed bin %d holds items %v, the engine evicts %d", o.label, b.ID, o.crashed, evicted)
	}
}

func (o *closeReader) ItemEvicted(req Request, from *Bin, t, resumeAt float64) {
	o.t.Helper()
	if from.ID != o.closing || o.evicted >= len(o.crashed) || o.crashed[o.evicted] != req.ID {
		o.t.Errorf("%s: ItemEvicted(item %d from bin %d), the crash of bin %d evicts %v in order", o.label, req.ID, from.ID, o.closing, o.crashed)
	}
	o.evicted++
	if ids := o.read("ItemEvicted", from); !slices.Equal(ids, o.crashed) {
		o.t.Errorf("%s: crashed bin %d holds %v in ItemEvicted, %v in BinCrashed", o.label, from.ID, ids, o.crashed)
	}
}

func (o *closeReader) ItemMigrated(itemID int, from, to *Bin, t, cost float64, drained bool) {
	o.t.Helper()
	if !drained {
		return
	}
	o.drains++
	if from.ID != o.closing || o.closedAt[from.ID] != t {
		o.t.Errorf("%s: drained bin %d at %v, BinClosed reported bin %d", o.label, from.ID, t, o.closing)
	}
	if ids := o.read("ItemMigrated", from); len(ids) != 0 {
		o.t.Errorf("%s: drained bin %d still holds %v", o.label, from.ID, ids)
	}
}

// check compares the recorded openings and closings with the run's bin
// records and returns how many openings reused a struct.
func (o *closeReader) check(res *Result) int {
	o.t.Helper()
	if len(res.Bins) != len(o.openedAt) || len(res.Bins) != len(o.closedAt) {
		o.t.Fatalf("%s: %d bin records, observer saw %d openings and %d closings", o.label, len(res.Bins), len(o.openedAt), len(o.closedAt))
	}
	for _, u := range res.Bins {
		if o.openedAt[u.BinID] != u.OpenedAt || o.closedAt[u.BinID] != u.ClosedAt {
			o.t.Errorf("%s: bin %d recorded open [%v, %v), observer saw [%v, %v)", o.label, u.BinID, u.OpenedAt, u.ClosedAt, o.openedAt[u.BinID], o.closedAt[u.BinID])
		}
	}
	return res.BinsOpened - len(o.structs)
}

// TestClosedBinReadableInCloseCallbacks: the engine reuses a closed bin's
// struct for a later opening, but only after the callbacks of the event that
// closed it have returned. A faulty run with an admission queue, whose
// crashes dispatch queued items in the same event, and a consolidating run
// read each closed bin in BinClosed, BinCrashed, ItemEvicted and
// ItemMigrated and find it as the run left it.
func TestClosedBinReadableInCloseCallbacks(t *testing.T) {
	var crashes, drains, reused int
	run := func(label string, l *item.List, p Policy, opts ...Option) {
		o := newCloseReader(t, label, l)
		reused += o.check(mustSimulate(t, l, p, append(opts, WithObserver(o))...))
		crashes += o.crashes
		drains += o.drains
	}
	for seed := int64(0); seed < 3; seed++ {
		l := randomList(seed, 120, 2, 20)
		for _, p := range StandardPolicies(seed) {
			run("faulty/"+p.Name(), l, p, faultyOpts()...)
		}
	}
	migrate := WithMigration(testConsolidator{}, 4, MigrationBudget{MaxMoves: 5, MaxCost: 40})
	for _, tr := range migTraces(t, 45) {
		for _, p := range StandardPolicies(45) {
			run("migrating/"+tr.Name+"/"+p.Name(), tr.List, p, migrate)
		}
	}
	if crashes == 0 || drains == 0 || reused == 0 {
		t.Fatalf("%d crashes, %d drains and %d reused bins: the runs do not exercise the close paths", crashes, drains, reused)
	}
}

// TestCrashedBinReopenedBeforeStaleDepartures: bin 0 crashes at t = 2 and
// its two items retry at t = 3, which opens bin 1 in bin 0's struct; bin 1
// crashes at t = 5 and bin 2 reuses the struct again. At t = 10 each item
// has two stale departures, naming bins 0 and 1, ahead of its live one. The
// stale ones must find no bin, though the struct they once named is open,
// and the run must equal the naive faulty reference.
func TestCrashedBinReopenedBeforeStaleDepartures(t *testing.T) {
	l := list(t, 1, []float64{0, 10, 0.5}, []float64{0, 10, 0.3})
	opts := []Option{WithFaults(traceInj{0: 2, 1: 5}, fixedRetry{wait: 1})}
	o := newCloseReader(t, "stale", l)
	e, err := NewEngine(l, NewFirstFit(), append(opts, WithObserver(o))...)
	if err != nil {
		t.Fatal(err)
	}
	recs, res := stepAll(t, e)
	if o.check(res) != 2 || res.BinsOpened != 3 || res.Crashes != 2 {
		t.Fatalf("%d bins opened in %d structs with %d crashes, want 3 in 1 with 2", res.BinsOpened, len(o.structs), res.Crashes)
	}
	stale := 0
	for _, r := range recs {
		if r.Class == EventDeparture && r.BinID == -1 {
			stale++
		}
	}
	if stale != 4 {
		t.Errorf("%d stale departures found no bin, want 4: %+v", stale, recs)
	}
	ref, err := SimulateFaultyReference(l, NewFirstFit(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	faultyResultsEqual(t, "stale", res, ref)
}

// TestInstanceHandsOnSpareBins: a finished run leaves every bin it had with
// its Instance, as many as its peak of open bins. Each later run over the
// Instance takes them up and hands them back among its own, and returns
// what Simulate returns.
func TestInstanceHandsOnSpareBins(t *testing.T) {
	l := randomList(3, 200, 2, 20)
	in, err := NewInstance(l)
	if err != nil {
		t.Fatal(err)
	}
	first, err := in.Simulate(NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	held := slices.Clone(in.kit.bins[1:])
	if len(held) != first.MaxConcurrentBins {
		t.Fatalf("the Instance holds %d bins after a run whose peak was %d", len(held), first.MaxConcurrentBins)
	}
	for _, p := range registryPolicies(4) {
		got, err := in.Simulate(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustSimulate(t, l, p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s over a warm Instance differs from Simulate", p.Name())
		}
		for _, b := range held {
			if !slices.Contains(in.kit.bins, b) {
				t.Fatalf("%s: a bin the Instance held before the run is gone after it", p.Name())
			}
		}
	}
}

// TestWarmRunAllocsFlat: a cost-only run over an Instance that an earlier
// run has warmed allocates as many objects at n = 8000 as at n = 1000. The
// run takes its slot table, bins and open-bin slice from the Instance and
// hands them back empty, and reads its arrivals and departures from the
// Instance's orders, so nothing it allocates grows with the run.
func TestWarmRunAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		in, err := NewInstance(churnInstance(n))
		if err != nil {
			t.Fatal(err)
		}
		p := NewNextFit()
		return testing.AllocsPerRun(3, func() { // after one warming run
			if _, err := in.Simulate(p, WithHistory(nil)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); small != large {
		t.Errorf("a warm cost-only run allocates %v objects at n = 1000 and %v at n = 8000, want equal", small, large)
	}
}
