package core

import (
	"fmt"
	"math"

	"dvbp/internal/item"
)

// SimulateFaultyReference is a deliberately naive re-implementation of
// Simulate's failure semantics, used as a differential-testing oracle for
// the fault-injection, eviction/retry and admission-control paths. It keeps
// every pending event in a plain slice and scans for the minimum on each
// step — no event queue, no tombstoned open slice — while following the
// same event-ordering contract:
//
//	departures < crashes < retries < arrivals at equal times,
//	ties within a class broken by item ID / bin ID / eviction order / SeqNo.
//
// Policies are driven through identical Select/OnPack/OnClose sequences
// (including failed admission-queue attempts), so even seeded RandomFit must
// agree bit for bit. Observer and audit options are not supported here; only
// clairvoyance and the failure options are honoured.
//
// It intentionally shares no bookkeeping code with Simulate; keep it that
// way, or the oracle stops being independent.
func SimulateFaultyReference(l *item.List, p Policy, opts ...Option) (*Result, error) {
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid input: %w", err)
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.injector != nil && cfg.retry == nil {
		cfg.retry = retryNow{}
	}
	p.Reset()

	arrivals := l.SortedByArrival()

	type pendingDeparture struct {
		t      float64
		itemID int
		binID  int
	}
	type pendingRetry struct {
		t       float64
		seq     int64
		it      item.Item
		attempt int
	}
	type pendingQueue struct {
		it       item.Item
		attempt  int
		queuedAt float64
		deadline float64
	}
	type frBin struct {
		bin      *Bin
		closed   bool
		crashAt  float64
		hasCrash bool
	}

	var (
		bins     []*frBin
		deps     []pendingDeparture
		rets     []pendingRetry
		retrySeq int64
		waitq    []pendingQueue
		attempts = make(map[int]int)
		served   int
		res      = &Result{
			Algorithm: p.Name(), Dim: l.Dim, Items: l.Len(), Span: l.Span(), Mu: l.Mu(),
			Outcomes: make(map[int]Outcome, l.Len()),
		}
	)

	openBins := func() []*Bin {
		var out []*Bin
		for _, rb := range bins {
			if !rb.closed {
				out = append(out, rb.bin)
			}
		}
		return out
	}

	closeAt := func(rb *frBin, t float64, crashed bool) {
		rb.closed = true
		res.Bins = append(res.Bins, BinUsage{
			BinID: rb.bin.ID, OpenedAt: rb.bin.OpenedAt, ClosedAt: t,
			Packed: rb.bin.packed, Crashed: crashed,
		})
		res.Cost += t - rb.bin.OpenedAt
		p.OnClose(rb.bin)
	}

	makeReq := func(it item.Item, now float64, attempt int) Request {
		req := Request{ID: it.ID, SeqNo: it.SeqNo, Arrival: now, Size: it.Size, Attempt: attempt}
		if cfg.clairvoyant {
			req.Departure = it.Departure
			req.HasDeparture = true
		}
		return req
	}

	dispatch := func(it item.Item, attempt int, now float64, fromQueue bool) (bool, error) {
		open := openBins()
		req := makeReq(it, now, attempt)
		chosen := p.Select(req, open)
		opened := false
		var target *frBin
		if chosen == nil {
			if cfg.maxBins > 0 && len(open) >= cfg.maxBins {
				if fromQueue {
					return false, nil
				}
				if cfg.queueWhenFull {
					waitq = append(waitq, pendingQueue{it: it, attempt: attempt, queuedAt: now, deadline: now + cfg.queueDeadline})
				} else {
					res.Rejected++
					res.Outcomes[it.ID] = OutcomeRejected
				}
				return false, nil
			}
			opened = true
			target = &frBin{bin: newBin(len(bins), l.Dim, now, nil, nil)}
			bins = append(bins, target)
			if cfg.injector != nil {
				if at, ok := cfg.injector.BinOpened(target.bin.ID, now); ok && !math.IsNaN(at) && at > now {
					target.crashAt, target.hasCrash = at, true
				}
			}
		} else {
			for _, rb := range bins {
				if !rb.closed && rb.bin.ID == chosen.ID {
					target = rb
					break
				}
			}
			if target == nil {
				return false, fmt.Errorf("core: faulty reference: policy %s returned unknown bin %d", p.Name(), chosen.ID)
			}
			if !target.bin.Fits(it.Size) {
				return false, fmt.Errorf("core: faulty reference: policy %s chose unfit bin %d", p.Name(), chosen.ID)
			}
		}
		target.bin.active[it.ID] = it.Size
		target.bin.packed++
		// From-scratch rebuild through the exact accumulator: bit-identical
		// to the fast engine's incremental load by order-independence.
		target.bin.refreshLoadFromActive()
		p.OnPack(req, target.bin, opened)

		res.Placements = append(res.Placements, Placement{ItemID: it.ID, BinID: target.bin.ID, Opened: opened, Time: now, Attempt: attempt})
		if attempt > 0 {
			res.Retries++
		}
		deps = append(deps, pendingDeparture{t: it.Departure, itemID: it.ID, binID: target.bin.ID})
		if n := len(openBins()); n > res.MaxConcurrentBins {
			res.MaxConcurrentBins = n
		}
		return true, nil
	}

	drainQueue := func(t float64) error {
		if len(waitq) == 0 {
			return nil
		}
		var kept []pendingQueue
		for _, q := range waitq {
			if t > q.deadline || t >= q.it.Departure {
				res.TimedOut++
				res.Outcomes[q.it.ID] = OutcomeTimedOut
				continue
			}
			placed, err := dispatch(q.it, q.attempt, t, true)
			if err != nil {
				return err
			}
			if placed {
				res.QueuedPlaced++
				res.QueueDelay += t - q.queuedAt
				continue
			}
			kept = append(kept, q)
		}
		waitq = kept
		return nil
	}

	for {
		// Scan all pending events for the earliest (time, class, tiebreak).
		const (
			clsDeparture = iota
			clsCrash
			clsRetry
			clsArrival
			clsNone
		)
		t, cls := math.Inf(1), clsNone
		depIdx := -1
		for i, d := range deps {
			if d.t < t || (d.t == t && (cls > clsDeparture || (cls == clsDeparture && d.itemID < deps[depIdx].itemID))) {
				t, cls, depIdx = d.t, clsDeparture, i
			}
		}
		var crashBin *frBin
		for _, rb := range bins {
			if rb.closed || !rb.hasCrash {
				continue
			}
			if rb.crashAt < t || (rb.crashAt == t && (cls > clsCrash || (cls == clsCrash && rb.bin.ID < crashBin.bin.ID))) {
				t, cls, crashBin = rb.crashAt, clsCrash, rb
				depIdx = -1
			}
		}
		retIdx := -1
		for i, r := range rets {
			if r.t < t || (r.t == t && (cls > clsRetry || (cls == clsRetry && r.seq < rets[retIdx].seq))) {
				t, cls, retIdx = r.t, clsRetry, i
				depIdx, crashBin = -1, nil
			}
		}
		if len(arrivals) > 0 && (arrivals[0].Arrival < t || (arrivals[0].Arrival == t && cls > clsArrival)) {
			t, cls = arrivals[0].Arrival, clsArrival
			depIdx, crashBin, retIdx = -1, nil, -1
		}
		if cls == clsNone {
			break
		}

		switch cls {
		case clsDeparture:
			d := deps[depIdx]
			deps = append(deps[:depIdx], deps[depIdx+1:]...)
			var target *frBin
			for _, rb := range bins {
				if !rb.closed && rb.bin.ID == d.binID {
					target = rb
					break
				}
			}
			if target == nil {
				return nil, fmt.Errorf("core: faulty reference: departure from closed bin %d", d.binID)
			}
			delete(target.bin.active, d.itemID)
			target.bin.refreshLoadFromActive()
			served++
			res.Outcomes[d.itemID] = OutcomeServed
			if len(target.bin.active) == 0 {
				closeAt(target, d.t, false)
			}
			if err := drainQueue(d.t); err != nil {
				return nil, err
			}
		case clsCrash:
			evicted := crashBin.bin.ActiveItemIDs()
			res.Crashes++
			closeAt(crashBin, t, true)
			for _, id := range evicted {
				// Drop the evicted item's pending departure (the fast engine
				// instead skips it as stale when it fires).
				for i, d := range deps {
					if d.itemID == id && d.binID == crashBin.bin.ID {
						deps = append(deps[:i], deps[i+1:]...)
						break
					}
				}
				it := itemByIDSlow(l, id)
				attempts[id]++
				attempt := attempts[id]
				res.Evictions++
				delay := cfg.retry.Delay(attempt)
				if !(delay > 0) {
					delay = 0
				}
				retryAt := t + delay
				if retryAt < it.Departure {
					res.LostUsageTime += retryAt - t
					retrySeq++
					rets = append(rets, pendingRetry{t: retryAt, seq: retrySeq, it: it, attempt: attempt})
				} else {
					res.ItemsLost++
					res.LostUsageTime += it.Departure - t
					res.Outcomes[id] = OutcomeLost
				}
			}
			if err := drainQueue(t); err != nil {
				return nil, err
			}
		case clsRetry:
			r := rets[retIdx]
			rets = append(rets[:retIdx], rets[retIdx+1:]...)
			if _, err := dispatch(r.it, r.attempt, r.t, false); err != nil {
				return nil, err
			}
		case clsArrival:
			it := arrivals[0]
			arrivals = arrivals[1:]
			if _, err := dispatch(it, 0, it.Arrival, false); err != nil {
				return nil, err
			}
		}
	}

	for _, q := range waitq {
		res.TimedOut++
		res.Outcomes[q.it.ID] = OutcomeTimedOut
	}

	if n := len(openBins()); n != 0 {
		return nil, fmt.Errorf("core: faulty reference: %d bins left open after drain", n)
	}
	if served+res.ItemsLost+res.Rejected+res.TimedOut != l.Len() {
		return nil, fmt.Errorf("core: faulty reference: item conservation violated")
	}

	res.BinsOpened = len(bins)
	res.sortBins()
	return res, nil
}

// itemByIDSlow is the oracle's deliberately naive item lookup.
func itemByIDSlow(l *item.List, id int) item.Item {
	for _, it := range l.Items {
		if it.ID == id {
			return it
		}
	}
	panic(fmt.Sprintf("core: faulty reference: unknown item %d", id))
}
