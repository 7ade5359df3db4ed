package core

import (
	"fmt"
	"sync"

	"dvbp/internal/item"
)

// Instance is a static item list prepared once for any number of runs:
// NewInstance validates it, sorts its arrival and departure orders and folds
// span(R) and μ over the arrival order. Runs read all of these and write
// none, so one Instance can drive many policies in sequence, or in
// concurrent goroutines, and each run pays only for its own events
// (Instance.Simulate): a run reads its arrivals and the departures of its
// first placements from the two orders through cursors, and queues only the
// departures the Instance cannot know (Engine.Step). Simulate, NewEngine and
// RestoreEngine prepare an Instance of their own, so every run validates and
// orders its list through the same code.
//
// Runs also pass their scaffolding on: a run takes the slot table, the bins
// and the open-bin slice the Instance holds, reuses them before it allocates
// new ones, and hands them all back empty when it finishes, so a run over a
// warm Instance neither regrows its scaffolding nor allocates a bin. The
// Instance therefore keeps up to the largest peak of open bins any of its
// runs reached.
//
// The Instance reads the list in place, item sizes included: the caller must
// not mutate the list while runs over it may start or are in progress.
type Instance struct {
	list *item.List
	// arrivals holds the indices of list.Items in (Arrival, SeqNo) order;
	// shape folds span(R) and μ over the same order (arrivals.go).
	// departures holds them in (Departure, ID) order; a dynamic run's
	// Instance has none.
	arrivals   []int32
	departures []int32
	shape      shape

	// mu guards kit, the parts the next run takes (takeKit, putKit), so
	// no part is ever in two live runs; nil while a run holds them.
	mu  sync.Mutex
	kit *runKit
}

// runKit is the scaffolding a run borrows from its Instance: the slot table
// (one zero entry per list index), the bin arena with every bin closed and
// on the spare list, and an empty open-bin slice that keeps its capacity.
type runKit struct {
	slots []itemSlot
	bins  []*Bin
	spare []*Bin
	open  []*Bin
}

// newKit returns the parts of a run over n items that has none to take.
func newKit(n int) *runKit {
	return &runKit{slots: make([]itemSlot, n), bins: []*Bin{nil}}
}

// NewInstance validates a static list and prepares it for shared runs. It
// refuses exactly the lists Simulate refuses, with the same errors.
func NewInstance(l *item.List) (*Instance, error) {
	return prepare(l, false)
}

// prepare validates l for the run mode and orders its arrivals and, for a
// static run, its departures. A dynamic run's Instance is its own: the
// engine grows its arrival order as items are appended, and queues every
// departure.
func prepare(l *item.List, dynamic bool) (*Instance, error) {
	if err := validateList(l, dynamic); err != nil {
		return nil, err
	}
	in := &Instance{list: l, arrivals: l.ArrivalOrder(), kit: newKit(len(l.Items))}
	if !dynamic {
		in.departures = l.DepartureOrder()
	}
	for _, i := range in.arrivals {
		in.shape.add(l.Items[i].Arrival, l.Items[i].Departure)
	}
	return in, nil
}

// Orders returns the instance's arrival order, by (Arrival, SeqNo), and its
// departure order, by (Departure, ID), as indices into its list's Items.
// They are the slices its runs read, so the caller must not modify them;
// lowerbound.IntegralBoundOf sweeps them.
func (in *Instance) Orders() (arrivals, departures []int32) {
	return in.arrivals, in.departures
}

// validateList applies the list validation appropriate to the run mode:
// dynamic runs may (and usually do) start empty, and number their items by
// list index — the k-th item has ID k, as the k-th item record of a
// tenant's op log does — so the ID AppendArrival hands out next is free.
func validateList(l *item.List, dynamic bool) error {
	var err error
	if !dynamic {
		err = l.Validate()
	} else if err = l.ValidateDynamic(); err == nil {
		for i, it := range l.Items {
			if it.ID != i {
				err = fmt.Errorf("item %d: at list index %d; a dynamic run numbers its items by list index", it.ID, i)
				break
			}
		}
	}
	if err != nil {
		return fmt.Errorf("core: invalid input: %w", err)
	}
	return nil
}

// Simulate runs p over the instance exactly as core.Simulate runs it over
// the list, and returns the same Result. Concurrent calls may share the
// Instance, each with its own policy (the engine refuses one policy driving
// two runs at once). WithDynamicArrivals is refused: a dynamic run grows its
// own list, so it starts from NewEngine.
func (in *Instance) Simulate(p Policy, opts ...Option) (*Result, error) {
	cfg := newConfig(opts)
	if cfg.dynamic {
		return nil, fmt.Errorf("core: WithDynamicArrivals on a shared Instance; a dynamic run grows its own list, start it with NewEngine")
	}
	k := in.takeKit()
	e, err := in.newEngine(p, cfg, k)
	if err != nil {
		in.putKit(k)
		return nil, err
	}
	res, err := e.run()
	if err == nil {
		// Every item has left its bin and every bin is closed and spare;
		// clearing the slot table resets the items' eviction counts. A
		// failed run's parts are dropped.
		clear(e.slots)
		*k = runKit{slots: e.slots, bins: e.bins, spare: e.spare, open: e.open[:0]}
		in.putKit(k)
	}
	return res, err
}

// takeKit hands a starting run the Instance's parts, or new ones while
// another run holds them.
func (in *Instance) takeKit() *runKit {
	in.mu.Lock()
	k := in.kit
	in.kit = nil
	in.mu.Unlock()
	if k == nil {
		k = newKit(len(in.list.Items))
	}
	return k
}

// putKit takes back a finished run's parts. Of two runs that overlapped,
// the Instance keeps the parts with more bins, so it never holds more bins
// than one run had.
func (in *Instance) putKit(k *runKit) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.kit == nil || len(k.bins) > len(in.kit.bins) {
		in.kit = k
	}
}

// newEngine starts a run of p over the instance on the parts k lends it: it
// takes the policy-reuse guard, resets the policy and builds the engine.
func (in *Instance) newEngine(p Policy, cfg config, k *runKit) (*Engine, error) {
	if err := acquirePolicy(p); err != nil {
		return nil, err
	}
	p.Reset()
	return newEngineShell(in, p, cfg, k), nil
}
