package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
	"dvbp/internal/workload"
)

// panicPlanner fails the run if it is ever consulted: the disabled-migration
// differential attaches it to prove a zero budget configures nothing.
type panicPlanner struct{}

func (panicPlanner) Name() string { return "panic" }
func (panicPlanner) PlanPass(MigrationView, MigrationBudget) ([]MigrationMove, error) {
	panic("core: disabled migration consulted its planner")
}

// nullPlanner plans nothing, counting consultations.
type nullPlanner struct{ consults int }

func (*nullPlanner) Name() string { return "null" }
func (p *nullPlanner) PlanPass(MigrationView, MigrationBudget) ([]MigrationMove, error) {
	p.consults++
	return nil, nil
}

// fixedPlanner emits one fixed plan on its first consultation (the hostile
// planner of the rejection tests), then goes quiet.
type fixedPlanner struct {
	plan []MigrationMove
	err  error
	done bool
}

func (*fixedPlanner) Name() string { return "fixed" }
func (p *fixedPlanner) PlanPass(MigrationView, MigrationBudget) ([]MigrationMove, error) {
	if p.done {
		return nil, nil
	}
	p.done = true
	return p.plan, p.err
}

// testConsolidator is a self-contained drain-emptiest planner for the core
// property wall (the production planners live in internal/migrate, which
// imports core and so cannot be used here). It drains bins in ascending
// L1-load order into the fullest other bins that fit, all-or-nothing per
// source, within the budget.
type testConsolidator struct{}

func (testConsolidator) Name() string { return "test-consolidator" }

func (testConsolidator) PlanPass(view MigrationView, budget MigrationBudget) ([]MigrationMove, error) {
	load := make(map[int][]float64, len(view.Bins))
	for _, b := range view.Bins {
		l := make([]float64, view.Dim)
		for j := range l {
			l[j] = b.LoadAt(j)
		}
		load[b.ID] = l
	}
	sum := func(id int) float64 {
		s := 0.0
		for _, v := range load[id] {
			s += v
		}
		return s
	}
	order := append([]*Bin(nil), view.Bins...)
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && sum(order[j].ID) < sum(order[j-1].ID); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var moves []MigrationMove
	cost := 0.0
	drained := map[int]bool{}  // fully drained sources: close mid-pass, never targets
	received := map[int]bool{} // got items this pass: no longer drain candidates
	for _, src := range order {
		if drained[src.ID] || received[src.ID] {
			continue
		}
		items := src.ActiveItemIDs()
		if len(items) == 0 {
			continue
		}
		staged := make([]MigrationMove, 0, len(items))
		stagedCost := 0.0
		ok := true
		for _, id := range items {
			size := view.Size(id)
			c := size.SumNorm() * (view.Departure(id) - view.Now)
			if len(moves)+len(staged)+1 > budget.MaxMoves ||
				(budget.MaxCost > 0 && cost+stagedCost+c > budget.MaxCost) {
				ok = false
				break
			}
			best, bestSum := -1, -1.0
			for _, b := range view.Bins {
				if b.ID == src.ID || drained[b.ID] {
					continue
				}
				fits := true
				for j, s := range size {
					if load[b.ID][j]+s > 1 {
						fits = false
						break
					}
				}
				if fits && sum(b.ID) > bestSum {
					best, bestSum = b.ID, sum(b.ID)
				}
			}
			if best < 0 {
				ok = false
				break
			}
			for j, s := range size {
				load[src.ID][j] -= s
				load[best][j] += s
			}
			staged = append(staged, MigrationMove{ItemID: id, From: src.ID, To: best})
			stagedCost += c
		}
		if !ok {
			for i := len(staged) - 1; i >= 0; i-- {
				mv := staged[i]
				size := view.Size(mv.ItemID)
				for j, s := range size {
					load[mv.From][j] += s
					load[mv.To][j] -= s
				}
			}
			continue
		}
		for _, mv := range staged {
			received[mv.To] = true
		}
		drained[src.ID] = true
		moves = append(moves, staged...)
		cost += stagedCost
	}
	return moves, nil
}

// migTraces returns the three trace models the migration wall runs over,
// shrunk to test size. Deterministic in the seed.
func migTraces(t *testing.T, seed int64) []struct {
	Name string
	List *item.List
} {
	t.Helper()
	azure, google := workload.AzureLike(2), workload.GoogleLike(2)
	azure.Horizon, google.Horizon = 25, 25
	ul, err := workload.Uniform(workload.UniformConfig{D: 2, N: 80, Mu: 8, T: 25, B: 20}, seed)
	if err != nil {
		t.Fatalf("uniform trace: %v", err)
	}
	al, err := workload.Datacenter(azure, seed)
	if err != nil {
		t.Fatalf("azure trace: %v", err)
	}
	gl, err := workload.Datacenter(google, seed)
	if err != nil {
		t.Fatalf("google trace: %v", err)
	}
	return []struct {
		Name string
		List *item.List
	}{{"uniform", ul}, {"azure", al}, {"google", gl}}
}

// fragPairList is the canonical consolidation workload (see
// internal/migrate): pairs of a big short-lived and a small long-lived item;
// FirstFit leaves `pairs` quarter-full bins after t=1.5.
func fragPairList(pairs int) *item.List {
	l := item.NewList(2)
	for i := 0; i < pairs; i++ {
		l.Add(0, 1.5, vector.Vector{0.7, 0.7})
		l.Add(0, 100, vector.Vector{0.25, 0.25})
	}
	return l
}

// lockstep runs two engines over the same instance and fails on the first
// divergence in the event streams; it returns both Results. When snapshots
// is true, it additionally requires bit-identical snapshot structures before
// every event.
func lockstep(t *testing.T, label string, l *item.List, pa, pb Policy, optsA, optsB []Option, snapshots bool) (ra, rb *Result) {
	t.Helper()
	ea, err := NewEngine(l, pa, optsA...)
	if err != nil {
		t.Fatalf("%s: NewEngine A: %v", label, err)
	}
	defer ea.Close()
	eb, err := NewEngine(l, pb, optsB...)
	if err != nil {
		t.Fatalf("%s: NewEngine B: %v", label, err)
	}
	defer eb.Close()
	for step := 0; ; step++ {
		if snapshots {
			sa, err := ea.Snapshot()
			if err != nil {
				t.Fatalf("%s: Snapshot A at %d: %v", label, step, err)
			}
			sb, err := eb.Snapshot()
			if err != nil {
				t.Fatalf("%s: Snapshot B at %d: %v", label, step, err)
			}
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("%s: snapshots diverged at step %d:\n A %+v\n B %+v", label, step, sa, sb)
			}
		}
		reca, oka, err := ea.Step()
		if err != nil {
			t.Fatalf("%s: Step A at %d: %v", label, step, err)
		}
		recb, okb, err := eb.Step()
		if err != nil {
			t.Fatalf("%s: Step B at %d: %v", label, step, err)
		}
		if oka != okb {
			t.Fatalf("%s: stream lengths diverged at step %d: A ok=%v, B ok=%v", label, step, oka, okb)
		}
		if !oka {
			break
		}
		if reca != recb {
			t.Fatalf("%s: event %d diverged:\n A %+v\n B %+v", label, step, reca, recb)
		}
	}
	ra, err = ea.Finish()
	if err != nil {
		t.Fatalf("%s: Finish A: %v", label, err)
	}
	rb, err = eb.Finish()
	if err != nil {
		t.Fatalf("%s: Finish B: %v", label, err)
	}
	if ga, gb := resultJSON(t, ra), resultJSON(t, rb); ga != gb {
		t.Fatalf("%s: results diverged:\n A %s\n B %s", label, ga, gb)
	}
	return ra, rb
}

// TestMigrationDisabledIdentical: every disabled spelling of WithMigration —
// zero budget, nil planner, zero/negative/NaN period — leaves the engine
// bit-identical to one built without the option: same events, same snapshots
// before every event, same Result. The attached planner panics if consulted.
func TestMigrationDisabledIdentical(t *testing.T) {
	for _, tr := range migTraces(t, 42) {
		for _, name := range PolicyNames() {
			pa, err := NewPolicy(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := NewPolicy(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			lockstep(t, tr.Name+"/"+name, tr.List, pa, pb,
				nil,
				[]Option{WithMigration(panicPlanner{}, 5, MigrationBudget{MaxMoves: 0})},
				true)
		}
	}
	// The remaining disabled spellings, on one policy and trace.
	l := migTraces(t, 43)[0].List
	for i, opt := range []Option{
		WithMigration(nil, 5, MigrationBudget{MaxMoves: 4}),
		WithMigration(panicPlanner{}, 0, MigrationBudget{MaxMoves: 4}),
		WithMigration(panicPlanner{}, -3, MigrationBudget{MaxMoves: 4}),
		WithMigration(panicPlanner{}, math.NaN(), MigrationBudget{MaxMoves: 4}),
		WithMigration(panicPlanner{}, 5, MigrationBudget{MaxMoves: -1}),
	} {
		lockstep(t, fmt.Sprintf("disabled-%d", i), l, NewFirstFit(), NewFirstFit(),
			nil, []Option{opt}, true)
	}
}

// TestMigrationEmptyPlannerIdentical: an enabled planner that always plans
// nothing changes no event and no result, and is actually consulted.
func TestMigrationEmptyPlannerIdentical(t *testing.T) {
	for _, tr := range migTraces(t, 44) {
		for _, name := range PolicyNames() {
			pa, err := NewPolicy(name, 44)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := NewPolicy(name, 44)
			if err != nil {
				t.Fatal(err)
			}
			null := &nullPlanner{}
			// An enabled migration run is never snapshotted, so compare
			// events and results only.
			lockstep(t, tr.Name+"/"+name, tr.List, pa, pb,
				nil,
				[]Option{WithMigration(null, 3, MigrationBudget{MaxMoves: 4})},
				false)
			if null.consults == 0 {
				t.Errorf("%s/%s: empty planner was never consulted", tr.Name, name)
			}
		}
	}
}

// migInvariantObs checks every migration callback against the engine's
// contracts: budget compliance per pass, no target overflow beyond the
// engine's Eps tolerance, exact cost accounting, and bit-identical
// accumulator recompute of both touched bins.
type migInvariantObs struct {
	BaseObserver
	t      *testing.T
	sizes  map[int]vector.Vector
	deps   map[int]float64
	budget MigrationBudget

	passT     float64
	passMoves int
	passCost  float64
	total     int
	drains    int
}

func (o *migInvariantObs) ItemMigrated(itemID int, from, to *Bin, at, cost float64, drained bool) {
	o.t.Helper()
	if at != o.passT {
		o.passT, o.passMoves, o.passCost = at, 0, 0
	}
	o.passMoves++
	o.passCost += cost
	o.total++
	if drained {
		o.drains++
	}
	if o.passMoves > o.budget.MaxMoves {
		o.t.Errorf("pass at t=%v exceeded MaxMoves %d", at, o.budget.MaxMoves)
	}
	if o.budget.MaxCost > 0 && o.passCost > o.budget.MaxCost+1e-12 {
		o.t.Errorf("pass at t=%v cost %v exceeded MaxCost %v", at, o.passCost, o.budget.MaxCost)
	}
	size, ok := o.sizes[itemID]
	if !ok {
		o.t.Fatalf("migrated unknown item %d", itemID)
	}
	if want := size.SumNorm() * (o.deps[itemID] - at); cost != want {
		o.t.Errorf("item %d move cost = %v, want exactly %v", itemID, cost, want)
	}
	for j := 0; j < to.Dim(); j++ {
		if to.LoadAt(j) > 1+vector.Eps {
			o.t.Errorf("target bin %d overflows dim %d: load %v", to.ID, j, to.LoadAt(j))
		}
	}
	if drained {
		if from.ActiveItems() != 0 {
			o.t.Errorf("move reported drained but source bin %d still holds %d items", from.ID, from.ActiveItems())
		}
	}
	o.recheckLoads(to)
	o.recheckLoads(from)
}

// recheckLoads rebuilds the bin's load from scratch with fresh accumulators
// over the test-owned sizes; the engine's incrementally-maintained load must
// match bit for bit (vector.Acc state is a pure function of the active
// multiset).
func (o *migInvariantObs) recheckLoads(b *Bin) {
	o.t.Helper()
	for j := 0; j < b.Dim(); j++ {
		var a vector.Acc
		for _, id := range b.ActiveItemIDs() {
			a.Add(o.sizes[id][j])
		}
		if got, want := b.LoadAt(j), a.Round(); got != want {
			o.t.Errorf("bin %d dim %d: engine load %v, from-scratch accumulator %v", b.ID, j, got, want)
		}
	}
}

// TestMigrationInvariants is the property wall: a consolidating planner over
// all policies × the three trace models, with the audit seam (index
// structural validation, held open-load totals against a fresh sum, and load
// cross-checks after every event) armed and the observer above verifying
// every move. AdaptiveHybrid rides along so its held totals are audited
// across moves and drains.
func TestMigrationInvariants(t *testing.T) {
	budget := MigrationBudget{MaxMoves: 5, MaxCost: 40}
	migrated := 0
	for _, tr := range migTraces(t, 45) {
		for _, name := range append(PolicyNames(), "AdaptiveHybrid") {
			p, err := NewPolicy(name, 45)
			if err != nil {
				t.Fatal(err)
			}
			sizes := make(map[int]vector.Vector, tr.List.Len())
			deps := make(map[int]float64, tr.List.Len())
			for _, it := range tr.List.Items {
				sizes[it.ID] = it.Size
				deps[it.ID] = it.Departure
			}
			obs := &migInvariantObs{t: t, sizes: sizes, deps: deps, budget: budget}
			var audit Audit
			res, err := Simulate(tr.List, p, WithMigration(testConsolidator{}, 4, budget),
				WithObserver(obs), WithAudit(&audit))
			if err != nil {
				t.Fatalf("%s/%s: %v", tr.Name, name, err)
			}
			if res.Migrations != obs.total || res.BinsDrained != obs.drains {
				t.Errorf("%s/%s: result reports %d moves/%d drains, observer saw %d/%d",
					tr.Name, name, res.Migrations, res.BinsDrained, obs.total, obs.drains)
			}
			migrated += obs.total
			// The usage-time objective must still equal the bins' recorded
			// open intervals exactly.
			span := 0.0
			for _, b := range res.Bins {
				span += b.ClosedAt - b.OpenedAt
			}
			if diff := res.Cost - span; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s/%s: Cost %v != Σ bin spans %v", tr.Name, name, res.Cost, span)
			}
		}
	}
	if migrated == 0 {
		t.Fatal("property wall exercised zero migrations; workloads are too easy")
	}
}

// TestMigrationEventStream pins the shape of the committed migration events
// and the departure redirection of moved items.
func TestMigrationEventStream(t *testing.T) {
	l := fragPairList(6)
	e, err := NewEngine(l, NewFirstFit(), WithMigration(testConsolidator{}, 2, MigrationBudget{MaxMoves: 16}))
	if err != nil {
		t.Fatal(err)
	}
	recs, res := stepAll(t, e)
	finalBin := map[int]int{}
	var migSeqs []int64
	for _, rec := range recs {
		if rec.Class == EventMigration {
			if rec.Time != 2*float64(int(rec.Time/2)) || rec.Time <= 0 {
				t.Errorf("migration event at t=%v, want positive multiple of period 2", rec.Time)
			}
			if rec.ItemID < 0 || rec.BinID < 0 {
				t.Errorf("migration event %+v lacks item or target bin", rec)
			}
			if rec.Placed || rec.Opened {
				t.Errorf("migration event %+v claims placement flags", rec)
			}
			finalBin[rec.ItemID] = rec.BinID
			migSeqs = append(migSeqs, rec.Seq)
		}
	}
	if len(migSeqs) == 0 {
		t.Fatal("no migration events on the canonical consolidation workload")
	}
	if res.Migrations != len(migSeqs) {
		t.Errorf("Result.Migrations = %d, stream has %d", res.Migrations, len(migSeqs))
	}
	if res.BinsDrained == 0 {
		t.Error("no bins drained")
	}
	if res.MigrationCost <= 0 {
		t.Errorf("MigrationCost = %v, want > 0", res.MigrationCost)
	}
	// Departures of migrated items must report the bin the item actually
	// lives in (the redirect), not the original placement.
	for _, rec := range recs {
		if rec.Class == EventDeparture {
			if want, ok := finalBin[rec.ItemID]; ok && rec.BinID != want {
				t.Errorf("departure of migrated item %d reported bin %d, want %d", rec.ItemID, rec.BinID, want)
			}
		}
	}
	// Seqs are one contiguous stream shared with all other events.
	for i, rec := range recs {
		if rec.Seq != int64(i)+1 {
			t.Fatalf("event %d has Seq %d, want %d", i, rec.Seq, i+1)
		}
	}
	if res.Cost >= 600 {
		t.Errorf("consolidated cost = %v, want < 600 (baseline)", res.Cost)
	}
}

// TestMigrationHostilePlans: structurally invalid plans poison the run with
// a structured error naming the planner — never a panic, never a half-applied
// pass.
func TestMigrationHostilePlans(t *testing.T) {
	cases := []struct {
		name string
		plan []MigrationMove
		err  error
		want string
	}{
		{name: "planner error", err: fmt.Errorf("boom"), want: "boom"},
		{name: "over budget", plan: []MigrationMove{
			{ItemID: 1, From: 0, To: 1}, {ItemID: 3, From: 1, To: 2}, {ItemID: 5, From: 2, To: 3}},
			want: "budget"},
		{name: "duplicate item", plan: []MigrationMove{
			{ItemID: 1, From: 0, To: 1}, {ItemID: 1, From: 1, To: 2}}, want: "both relocate"},
		{name: "self move", plan: []MigrationMove{{ItemID: 1, From: 0, To: 0}}, want: "itself"},
		{name: "unknown source", plan: []MigrationMove{{ItemID: 1, From: 77, To: 1}}, want: "bin"},
		{name: "unknown target", plan: []MigrationMove{{ItemID: 1, From: 0, To: 77}}, want: "bin"},
		{name: "unknown item", plan: []MigrationMove{{ItemID: 999, From: 0, To: 1}}, want: "item"},
		{name: "departed item", plan: []MigrationMove{{ItemID: 0, From: 0, To: 1}}, want: "item"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Simulate(fragPairList(6), NewFirstFit(),
				WithMigration(&fixedPlanner{plan: tc.plan, err: tc.err}, 2, MigrationBudget{MaxMoves: 2}))
			if err == nil {
				t.Fatal("hostile plan accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
