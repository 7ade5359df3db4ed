package core

import (
	"fmt"

	"dvbp/internal/item"
)

// Instance is a static item list prepared once for any number of runs:
// NewInstance validates it, sorts its arrival order and folds span(R) and μ
// over that order. Runs read all three and write none, so one Instance can
// drive many policies in sequence, or in concurrent goroutines, and each run
// pays only for its own events (Instance.Simulate). Simulate and a static
// NewEngine prepare an Instance of their own, so every run validates and
// orders its list through the same code.
//
// The Instance reads the list in place, item sizes included: the caller must
// not mutate the list while runs over it may start or are in progress.
type Instance struct {
	list *item.List
	// arrivals holds the indices of list.Items in (Arrival, SeqNo) order;
	// shape folds span(R) and μ over the same order (arrivals.go).
	arrivals []int32
	shape    shape
}

// NewInstance validates a static list and prepares it for shared runs. It
// refuses exactly the lists Simulate refuses, with the same errors.
func NewInstance(l *item.List) (*Instance, error) {
	in, err := prepare(l, false)
	if err != nil {
		return nil, err
	}
	return &in, nil
}

// prepare validates l for the run mode and orders its arrivals. A dynamic
// run's Instance is its own: the engine grows its arrival order as items are
// appended.
func prepare(l *item.List, dynamic bool) (Instance, error) {
	if err := validateList(l, dynamic); err != nil {
		return Instance{}, err
	}
	in := Instance{list: l, arrivals: l.ArrivalOrder()}
	for _, i := range in.arrivals {
		in.shape.add(l.Items[i].Arrival, l.Items[i].Departure)
	}
	return in, nil
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
	e, err := in.newEngine(p, cfg)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// newEngine starts a run of p over the instance: it takes the policy-reuse
// guard, resets the policy and builds the engine.
func (in *Instance) newEngine(p Policy, cfg config) (*Engine, error) {
	if err := acquirePolicy(p); err != nil {
		return nil, err
	}
	p.Reset()
	return newEngineShell(in, p, cfg), nil
}
