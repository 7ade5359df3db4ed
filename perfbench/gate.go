package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"net/http"
	"time"

	"dvbp/internal/check"
	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/lowerbound"
	"dvbp/internal/metrics"
	"dvbp/internal/server"
)

// digest accumulates exact output fields in a fixed order. Floats enter as
// their bit patterns, so nothing depends on formatting or summation order.
type digest struct{ h hash.Hash }

func newDigest(workload string, seed int64) *digest {
	d := &digest{sha256.New()}
	d.str(workload)
	d.int(seed)
	return d
}

func (d *digest) str(s string) { d.int(int64(len(s))); d.h.Write([]byte(s)) }
func (d *digest) int(v int64)  { d.h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }
func (d *digest) f64(v float64) {
	d.h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
}
func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// decision is one placement as the server acknowledges it.
func (d *digest) decision(p server.PlaceResult) {
	d.int(int64(p.Item))
	d.int(int64(p.Bin))
	if p.Opened {
		d.int(1)
	} else {
		d.int(0)
	}
	d.f64(p.Time)
}

// replica is a single-threaded core.Engine fed one tenant's admitted items,
// the policy and the seed: the oracle every acknowledgement must equal.
type replica struct {
	decisions  []server.PlaceResult
	placements []core.Placement // of the finished run
	cost, lb   float64

	// Layer timings taken on the way: Step time over the admitted
	// arrivals, and Snapshot and FragOf at the state the window ended in.
	stepTime, snapshot, fragof time.Duration
}

// replay runs the replica over items, which must be the tenant's admitted
// items in admission order, then runs it to the end and checks the result.
func replay(cfg server.TenantConfig, items []item.Item) (*replica, error) {
	p, err := core.NewPolicy(cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	e, err := core.NewEngine(item.NewList(cfg.Dim), p, core.WithDynamicArrivals())
	if err != nil {
		return nil, err
	}
	defer e.Close()
	rep := &replica{decisions: make([]server.PlaceResult, 0, len(items))}
	list := item.NewList(cfg.Dim)
	for _, it := range items {
		list.Add(it.Arrival, it.Departure, it.Size)
	}
	begin := time.Now()
	err = admit(e, items, func(rec core.EventRecord) {
		rep.decisions = append(rep.decisions, server.PlaceResult{
			Tenant: cfg.Name, Item: rec.ItemID, Bin: rec.BinID, Opened: rec.Opened, Time: rec.Time})
	})
	if err != nil {
		return nil, err
	}
	rep.stepTime = time.Since(begin)
	begin = time.Now()
	if _, err := e.Snapshot(); err != nil {
		return nil, err
	}
	rep.snapshot = time.Since(begin)
	begin = time.Now()
	metrics.FragOf(cfg.Dim, e.AppendOpenBins(nil))
	rep.fragof = time.Since(begin)

	res, err := finish(e)
	if err != nil {
		return nil, err
	}
	if err := check.Result(list, res); err != nil {
		return nil, fmt.Errorf("replica result: %w", err)
	}
	rep.placements, rep.cost, rep.lb = res.Placements, res.Cost, lowerbound.IntegralBound(list)
	return rep, nil
}

// admit feeds items to e one at a time, as a tenant's worker admits them,
// stepping until each item's arrival is placed, and passes that event to
// placed.
func admit(e *core.Engine, items []item.Item, placed func(core.EventRecord)) error {
	for _, it := range items {
		id, err := e.AppendArrival(it.Arrival, it.Departure, it.Size)
		if err != nil {
			return err
		}
		for {
			rec, ok, err := e.Step()
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("replica drained before item %d arrived", id)
			}
			if rec.Class == core.EventArrival && rec.ItemID == id {
				placed(rec)
				break
			}
		}
	}
	return nil
}

// finish steps e through every remaining event and finishes the run.
func finish(e *core.Engine) (*core.Result, error) {
	for {
		_, ok, err := e.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			return e.Finish()
		}
	}
}

// replicaCPU runs a fresh replica over items to the end, as replay does
// without its checks, and returns the process CPU time it took.
func replicaCPU(cfg server.TenantConfig, items []item.Item) (time.Duration, error) {
	p, err := core.NewPolicy(cfg.Policy, cfg.Seed)
	if err != nil {
		return 0, err
	}
	e, err := core.NewEngine(item.NewList(cfg.Dim), p, core.WithDynamicArrivals())
	if err != nil {
		return 0, err
	}
	defer e.Close()
	cpu0 := cpuTime()
	if err := admit(e, items, func(core.EventRecord) {}); err != nil {
		return 0, err
	}
	if _, err := finish(e); err != nil {
		return 0, err
	}
	return cpuTime() - cpu0, nil
}

// checkAcks compares every acknowledgement with the replica's decision.
func checkAcks(r *report, tenant string, acks, want []server.PlaceResult) {
	if len(acks) > len(want) {
		r.fail("%s: %d acknowledgements but the replica placed only %d items", tenant, len(acks), len(want))
		return
	}
	for i, a := range acks {
		if a != want[i] {
			r.fail("%s: ack %d = %+v, replica decided %+v", tenant, i, a, want[i])
			return
		}
	}
}

// checkListing compares a placements listing with the replica's finished
// run and with the acknowledgements.
func checkListing(r *report, tenant string, got []server.PlacementRecord, want []core.Placement, acks []server.PlaceResult) {
	if len(got) != len(want) {
		r.fail("%s: listing holds %d placements, replica %d", tenant, len(got), len(want))
		return
	}
	for i, p := range got {
		if w := (server.PlacementRecord{Item: want[i].ItemID, Bin: want[i].BinID, Time: want[i].Time}); p != w {
			r.fail("%s: listed placement %d = %+v, replica %+v", tenant, i, p, w)
			return
		}
		if i < len(acks) && (p.Item != acks[i].Item || p.Bin != acks[i].Bin || p.Time != acks[i].Time) {
			r.fail("%s: listed placement %d = %+v, acknowledged %+v", tenant, i, p, acks[i])
			return
		}
	}
}

// checkCost compares a tenant's status, read after every admitted item
// departed, with the replica's finished run.
func checkCost(r *report, tenant string, st server.TenantStatus, rep *replica, admitted int) {
	if st.Cost != rep.cost || st.OpenBins != 0 || st.Served != admitted {
		r.fail("%s: status after the last departure: cost %v, %d open bins, %d served; replica cost %v, %d items",
			tenant, st.Cost, st.OpenBins, st.Served, rep.cost, admitted)
	}
}

// serveGate is what the serving correctness gate computed on the way.
type serveGate struct {
	digest    string
	costRatio float64
	replicas  []*replica
}

// gate runs on the recovered server. Per tenant: every acknowledgement
// equals the replica's decision; the placements listing served after the
// restart equals the acknowledgements and the replica; after a clock
// advance past every departure, the status cost equals the replica's cost.
// The digest covers each tenant's first digestAcks acknowledgements.
func (e *serveEnv) gate(r *report) (*serveGate, error) {
	g := &serveGate{}
	d := newDigest(e.spec.name, e.rc.Seed)
	var ratios []float64
	for _, t := range e.tenants {
		name := t.cfg.Name
		var st server.TenantStatus
		if err := e.call(http.MethodGet, "/v1/tenants/"+name, nil, &st, "client.read"); err != nil {
			return nil, err
		}
		admitted := st.Items
		// A refused place may or may not have been admitted; every other
		// admitted item was acknowledged.
		if admitted < len(t.acks) || admitted > len(t.acks)+1 || (admitted > len(t.acks) && !t.refused) {
			r.fail("%s: server admitted %d items, %d acknowledged", name, admitted, len(t.acks))
			admitted = len(t.acks)
		}
		rep, err := replay(t.cfg, t.items[:admitted])
		if err != nil {
			r.fail("%s: replica: %v", name, err)
			continue
		}
		g.replicas = append(g.replicas, rep)
		checkAcks(r, name, t.acks, rep.decisions)

		var listing server.PlacementsResult
		if err := e.call(http.MethodGet, "/v1/tenants/"+name+"/placements?from=0", nil, &listing, "client.read"); err != nil {
			return nil, err
		}
		checkListing(r, name, listing.Placements, rep.placements, t.acks)

		end := 0.0
		for _, it := range t.items[:admitted] {
			end = math.Max(end, it.Departure)
		}
		if err := e.call(http.MethodPost, "/v1/tenants/"+name+"/advance", map[string]float64{"to": end}, nil, "client.advance"); err != nil {
			return nil, err
		}
		if err := e.call(http.MethodGet, "/v1/tenants/"+name, nil, &st, "client.read"); err != nil {
			return nil, err
		}
		checkCost(r, name, st, rep, admitted)
		ratios = append(ratios, rep.cost/rep.lb)

		if len(t.acks) < digestAcks {
			r.fail("%s: %d acknowledgements, the digest needs %d", name, len(t.acks), digestAcks)
		}
		d.str(name)
		d.str(t.cfg.Policy)
		for _, a := range t.acks[:min(digestAcks, len(t.acks))] {
			d.decision(a)
		}
	}
	g.costRatio = mean(ratios)
	g.digest = d.sum()
	return g, nil
}
