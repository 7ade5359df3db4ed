package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
	"dvbp/internal/workload"
)

// seqObserver records every callback as a compact event string, and every
// AfterSelect separately for the SelectObserver seam.
type seqObserver struct {
	events  []string
	selects []string
}

func (o *seqObserver) BeforePack(req Request, open []*Bin) {
	o.events = append(o.events, fmt.Sprintf("before:%d(open=%d)", req.ID, len(open)))
}

func (o *seqObserver) AfterPack(req Request, b *Bin, opened bool) {
	o.events = append(o.events, fmt.Sprintf("after:%d->bin%d(new=%v)", req.ID, b.ID, opened))
}

func (o *seqObserver) BinClosed(b *Bin, t float64) {
	o.events = append(o.events, fmt.Sprintf("closed:bin%d@%g", b.ID, t))
}

func (o *seqObserver) AfterSelect(req Request, chosen *Bin, fitChecks int) {
	c := "nil"
	if chosen != nil {
		c = fmt.Sprintf("bin%d", chosen.ID)
	}
	o.selects = append(o.selects, fmt.Sprintf("select:%d->%s(fits=%d)", req.ID, c, fitChecks))
}

// TestObserverCallbackOrdering pins the exact callback sequence on a
// hand-built instance: BeforePack -> AfterPack per item, with BinClosed
// delivered for departures at or before an arrival instant before that
// arrival's BeforePack, and remaining closes in departure order at drain.
func TestObserverCallbackOrdering(t *testing.T) {
	l := item.NewList(1)
	l.Add(0, 10, vector.Of(0.6)) // item 0: opens bin 0
	l.Add(0, 5, vector.Of(0.6))  // item 1: opens bin 1, departs first
	l.Add(6, 8, vector.Of(0.5))  // item 2: arrives after bin 1 closed, opens bin 2

	obs := &seqObserver{}
	if _, err := Simulate(l, NewFirstFit(), WithObserver(obs)); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"before:0(open=0)",
		"after:0->bin0(new=true)",
		"before:1(open=1)",
		"after:1->bin1(new=true)",
		"closed:bin1@5", // item 1 departs at 5 <= arrival 6: close precedes BeforePack
		"before:2(open=1)",
		"after:2->bin2(new=true)",
		"closed:bin2@8", // drain closes in departure order
		"closed:bin0@10",
	}
	if !reflect.DeepEqual(obs.events, want) {
		t.Errorf("callback sequence:\ngot  %v\nwant %v", obs.events, want)
	}

	wantSelects := []string{
		"select:0->nil(fits=0)", // no open bins to probe
		"select:1->nil(fits=1)", // bin 0 probed, does not fit
		"select:2->nil(fits=1)", // bin 0 probed (0.6+0.5 > 1)
	}
	if !reflect.DeepEqual(obs.selects, wantSelects) {
		t.Errorf("AfterSelect sequence:\ngot  %v\nwant %v", obs.selects, wantSelects)
	}
}

// TestObserverOrderingInvariants checks the pairing rules on a larger random
// workload: every BeforePack is immediately followed by its AfterPack, and
// close events never interleave a before/after pair.
func TestObserverOrderingInvariants(t *testing.T) {
	l, err := workload.Uniform(workload.UniformConfig{D: 2, N: 500, Mu: 20, T: 200, B: 100}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range StandardPolicies(9) {
		obs := &seqObserver{}
		res, err := Simulate(l, p, WithObserver(obs))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		var pending string // non-empty between a BeforePack and its AfterPack
		var packs, closes int
		for _, e := range obs.events {
			switch {
			case len(e) > 7 && e[:7] == "before:":
				if pending != "" {
					t.Fatalf("%s: BeforePack %q while %q still pending", p.Name(), e, pending)
				}
				pending = e
			case len(e) > 6 && e[:6] == "after:":
				if pending == "" {
					t.Fatalf("%s: AfterPack %q without BeforePack", p.Name(), e)
				}
				pending = ""
				packs++
			default:
				if pending != "" {
					t.Fatalf("%s: %q interleaved a before/after pair", p.Name(), e)
				}
				closes++
			}
		}
		if packs != l.Len() {
			t.Errorf("%s: %d AfterPack events, want %d", p.Name(), packs, l.Len())
		}
		if closes != res.BinsOpened {
			t.Errorf("%s: %d BinClosed events, want %d", p.Name(), closes, res.BinsOpened)
		}
		if len(obs.selects) != l.Len() {
			t.Errorf("%s: %d AfterSelect events, want %d", p.Name(), len(obs.selects), l.Len())
		}
	}
}

// TestObservedRunResultIdentical asserts that attaching an observer (with or
// without the SelectObserver extension) leaves the Result byte-identical to
// an unobserved run.
func TestObservedRunResultIdentical(t *testing.T) {
	l, err := workload.Uniform(workload.UniformConfig{D: 2, N: 600, Mu: 50, T: 300, B: 100}, 13)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(r *Result) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, p := range StandardPolicies(21) {
		plain, err := Simulate(l, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		observed, err := Simulate(l, p, WithObserver(&seqObserver{}))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		baseOnly, err := Simulate(l, p, WithObserver(BaseObserver{}))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		want := encode(plain)
		if got := encode(observed); string(got) != string(want) {
			t.Errorf("%s: SelectObserver run differs from unobserved run", p.Name())
		}
		if got := encode(baseOnly); string(got) != string(want) {
			t.Errorf("%s: plain Observer run differs from unobserved run", p.Name())
		}
	}
}

// logObserver appends every callback it receives, extensions included, to a
// log it may share with other observers, each line tagged with its name.
type logObserver struct {
	name string
	log  *[]string
}

func (o *logObserver) add(format string, args ...any) {
	*o.log = append(*o.log, o.name+" "+fmt.Sprintf(format, args...))
}

func (o *logObserver) BeforePack(req Request, open []*Bin) {
	o.add("before %d/%d open=%d", req.ID, req.Attempt, len(open))
}
func (o *logObserver) AfterPack(req Request, b *Bin, opened bool) {
	o.add("after %d/%d bin=%d new=%v", req.ID, req.Attempt, b.ID, opened)
}
func (o *logObserver) BinClosed(b *Bin, t float64) { o.add("closed %d@%g", b.ID, t) }
func (o *logObserver) BinCrashed(b *Bin, t float64, evicted int) {
	o.add("crashed %d@%g evicted=%d", b.ID, t, evicted)
}
func (o *logObserver) ItemEvicted(req Request, from *Bin, t, resumeAt float64) {
	o.add("evicted %d from=%d@%g resume=%g", req.ID, from.ID, t, resumeAt)
}
func (o *logObserver) ItemLost(req Request, t float64) { o.add("lost %d@%g", req.ID, t) }
func (o *logObserver) ItemRejected(req Request, t float64, timedOut bool) {
	o.add("rejected %d@%g timeout=%v", req.ID, t, timedOut)
}
func (o *logObserver) ItemQueued(req Request, t float64) { o.add("queued %d@%g", req.ID, t) }
func (o *logObserver) ItemDequeued(req Request, queuedAt, t float64) {
	o.add("dequeued %d@%g since=%g", req.ID, t, queuedAt)
}
func (o *logObserver) ItemDeparted(itemID int, b *Bin, t float64) {
	o.add("departed %d from=%d@%g", itemID, b.ID, t)
}
func (o *logObserver) ItemMigrated(itemID int, from, to *Bin, t, cost float64, drained bool) {
	o.add("migrated %d %d->%d@%g drained=%v", itemID, from.ID, to.ID, t, drained)
}

// selectLogObserver is a logObserver that also takes the fit checks.
type selectLogObserver struct{ logObserver }

func (o *selectLogObserver) AfterSelect(req Request, chosen *Bin, fitChecks int) {
	o.add("select %d fits=%d", req.ID, fitChecks)
}

// TestObserversCalledInOptionOrder attaches two observers to a run with
// crashes, a capped fleet with an admission queue, and migration, so every
// callback kind fires. Each observer must see the callbacks a lone observer
// sees, each callback reaching the first observer and then the second before
// the engine goes on. Fit checks are counted exactly when one of the two is
// a SelectObserver, wherever it stands, and it sees the lone count.
func TestObserversCalledInOptionOrder(t *testing.T) {
	l := randomList(7, 120, 2, 20)
	opts := []Option{
		WithFaults(hashInj{seed: 3, mean: 12}, fixedRetry{wait: 1}),
		WithMaxBins(4), WithAdmissionQueue(5),
		WithMigration(testConsolidator{}, 4, MigrationBudget{MaxMoves: 5}),
	}
	// run steps a run with the given observers and reports whether the
	// engine counted fit checks.
	run := func(obs ...Observer) (counted bool) {
		t.Helper()
		o := slices.Clone(opts)
		for _, ob := range obs {
			o = append(o, WithObserver(ob))
		}
		e, err := NewEngine(l, NewFirstFit(), o...)
		if err != nil {
			t.Fatal(err)
		}
		counted = e.probe != nil
		stepAll(t, e)
		return counted
	}
	var solo, soloSelect []string
	if run(&logObserver{"x", &solo}) {
		t.Error("a lone plain observer made the engine count fit checks")
	}
	run(&selectLogObserver{logObserver{"x", &soloSelect}})
	kinds := map[string]int{}
	for _, e := range solo {
		kinds[strings.Fields(e)[1]]++
	}
	for _, k := range []string{"before", "after", "closed", "crashed", "evicted", "lost",
		"rejected", "queued", "dequeued", "departed", "migrated"} {
		if kinds[k] == 0 {
			t.Fatalf("the run fired no %q callback: %v", k, kinds)
		}
	}
	untag := func(log []string, name string) []string {
		var out []string
		for _, e := range log {
			if rest, ok := strings.CutPrefix(e, name+" "); ok {
				out = append(out, rest)
			}
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		first, last bool // the first or last observer is a SelectObserver
	}{{"plain+plain", false, false}, {"select+plain", true, false}, {"plain+select", false, true}} {
		var log []string
		mk := func(name string, sel bool) Observer {
			if sel {
				return &selectLogObserver{logObserver{name, &log}}
			}
			return &logObserver{name, &log}
		}
		if counted := run(mk("a", tc.first), mk("b", tc.last)); counted != (tc.first || tc.last) {
			t.Errorf("%s: engine counted fit checks = %v", tc.name, counted)
		}
		for _, o := range []struct {
			name string
			sel  bool
		}{{"a", tc.first}, {"b", tc.last}} {
			want := untag(solo, "x")
			if o.sel {
				want = untag(soloSelect, "x")
			}
			if got := untag(log, o.name); !slices.Equal(got, want) {
				t.Errorf("%s: observer %s saw %d callbacks, a lone observer %d, or in another order", tc.name, o.name, len(got), len(want))
			}
		}
		// Without the select lines, the log is each callback twice in a
		// row: first to a, then to b.
		var plain []string
		for _, e := range log {
			if !strings.Contains(e, " select ") {
				plain = append(plain, e)
			}
		}
		for i := 0; i+1 < len(plain); i += 2 {
			a, aok := strings.CutPrefix(plain[i], "a ")
			b, bok := strings.CutPrefix(plain[i+1], "b ")
			if !aok || !bok || a != b {
				t.Fatalf("%s: callbacks %d and %d are %q and %q, want one callback to a then b", tc.name, i, i+1, plain[i], plain[i+1])
			}
		}
	}
}
