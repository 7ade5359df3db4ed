package core

import (
	"fmt"
	"sync"

	"dvbp/internal/item"
)

// Instance is a static item list prepared once for any number of runs:
// NewInstance validates it, sorts its arrival order and folds span(R) and μ
// over that order. Runs read all three and write none, so one Instance can
// drive many policies in sequence, or in concurrent goroutines, and each run
// pays only for its own events (Instance.Simulate). Simulate, NewEngine and
// RestoreEngine prepare an Instance of their own, so every run validates and
// orders its list through the same code.
//
// Runs also pass their bins on: a run takes the closed bins the Instance
// holds, reuses them before it allocates new ones, and hands all of its bins
// back when it finishes, so a run over a warm Instance opens bins without
// allocating. The Instance therefore keeps up to the largest peak of open
// bins any of its runs reached.
//
// The Instance reads the list in place, item sizes included: the caller must
// not mutate the list while runs over it may start or are in progress.
type Instance struct {
	list *item.List
	// arrivals holds the indices of list.Items in (Arrival, SeqNo) order;
	// shape folds span(R) and μ over the same order (arrivals.go).
	arrivals []int32
	shape    shape

	// mu guards spare, the closed bins the next run takes (takeSpare,
	// putSpare), so a bin is never in two live runs.
	mu    sync.Mutex
	spare []*Bin
}

// NewInstance validates a static list and prepares it for shared runs. It
// refuses exactly the lists Simulate refuses, with the same errors.
func NewInstance(l *item.List) (*Instance, error) {
	return prepare(l, false)
}

// prepare validates l for the run mode and orders its arrivals. A dynamic
// run's Instance is its own: the engine grows its arrival order as items are
// appended.
func prepare(l *item.List, dynamic bool) (*Instance, error) {
	if err := validateList(l, dynamic); err != nil {
		return nil, err
	}
	in := &Instance{list: l, arrivals: l.ArrivalOrder()}
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
	e.spare = in.takeSpare()
	res, err := e.run()
	// Once the run has finished, every bin it had is closed and on its spare
	// list; a failed run's spare list holds closed bins only.
	in.putSpare(e.spare)
	return res, err
}

// takeSpare hands a starting run every closed bin the Instance holds.
func (in *Instance) takeSpare() []*Bin {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.spare
	in.spare = nil
	return s
}

// putSpare takes back a finished run's bins. Of two runs that overlapped,
// the Instance keeps the larger set, so it never holds more bins than one
// run had.
func (in *Instance) putSpare(s []*Bin) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(s) > len(in.spare) {
		in.spare = s
	}
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
