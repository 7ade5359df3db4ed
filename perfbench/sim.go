package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"dvbp/internal/check"
	"dvbp/internal/core"
	"dvbp/internal/experiments"
	"dvbp/internal/item"
	"dvbp/internal/lowerbound"
	"dvbp/internal/parallel"
	"dvbp/internal/workload"
)

// sim-fleet replays one Azure-like d=2 trace through core.Engine, once per
// policy: the fleet builds to about 1.5k open bins, the regime where Select
// and the bin index do all the work.
const (
	fleetRateScale = 150
	fleetHorizon   = 120
)

func fleetTrace(seed int64) (*item.List, error) {
	return workload.Datacenter(azureLike(fleetRateScale, fleetHorizon), seed)
}

// azureLike is workload.AzureLike(2) at scale times its base arrival rate,
// over the given horizon, with arrival bursts off: with them, the seed
// alone moved the fleet a trace builds between 0.85k and 1.5k bins, so the
// spread between seeds measured the trace rather than the code.
func azureLike(scale, horizon float64) workload.DatacenterConfig {
	cfg := workload.AzureLike(2)
	cfg.Rate *= scale
	cfg.Horizon = horizon
	cfg.BurstFactor = 1
	return cfg
}

// fitCounter counts the fit checks of every Select.
type fitCounter struct {
	core.BaseObserver
	fits, selects int64
}

// AfterSelect implements core.SelectObserver.
func (f *fitCounter) AfterSelect(_ core.Request, _ *core.Bin, fitChecks int) {
	f.fits += int64(fitChecks)
	f.selects++
}

// fleetRun is one policy's pass over the trace.
type fleetRun struct {
	res    *core.Result
	events int
	// cpu is the process CPU time of the run; stepTime, the wall time
	// inside Engine.Step, is taken only when traced.
	cpu, stepTime time.Duration
	fits          fitCounter
}

// simulateFleet steps one policy through l. When traced it times every
// Step and counts fit checks through a SelectObserver.
func simulateFleet(l *item.List, policy string, seed int64, traced bool) (*fleetRun, error) {
	p, err := core.NewPolicy(policy, seed)
	if err != nil {
		return nil, err
	}
	run := &fleetRun{}
	var opts []core.Option
	if traced {
		opts = append(opts, core.WithObserver(&run.fits))
	}
	cpu0 := cpuTime()
	e, err := core.NewEngine(l, p, opts...)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	for {
		var ok bool
		if traced {
			s := time.Now()
			_, ok, err = e.Step()
			run.stepTime += time.Since(s)
		} else {
			_, ok, err = e.Step()
		}
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		run.events++
	}
	if run.res, err = e.Finish(); err != nil {
		return nil, err
	}
	run.cpu = cpuTime() - cpu0
	return run, nil
}

// resultDigest hashes a finished run's exact outputs.
func resultDigest(d *digest, policy string, res *core.Result) {
	d.str(policy)
	d.f64(res.Cost)
	d.int(int64(res.BinsOpened))
	d.int(int64(res.MaxConcurrentBins))
	for _, p := range res.Placements {
		d.int(int64(p.ItemID))
		d.int(int64(p.BinID))
		d.f64(p.Time)
	}
}

// runSimFleet repeats the policy sweep until the window closes. Every sweep
// must reproduce the first one exactly, and the first passes check.Result
// for every policy.
func runSimFleet(rc runConfig) (*report, error) {
	var setups, gens, refs []float64
	var l *item.List
	var lb float64
	for i := 0; i < setupRepeats; i++ {
		ref, err := refReading(1)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ms(ref))
		cpu0 := cpuTime()
		if l, err = fleetTrace(rc.Seed); err != nil {
			return nil, err
		}
		gens = append(gens, (cpuTime() - cpu0).Seconds())
		lb = lowerbound.IntegralBound(l)
		setups = append(setups, atRefSpeed(cpuTime()-cpu0, ref))
	}
	traced := rc.Tracer != nil
	r := &report{}
	digests := make([]string, len(fleetPolicies))
	ratios := make([]float64, len(fleetPolicies))
	events := make([]int, len(fleetPolicies))
	stepTime := make([]time.Duration, len(fleetPolicies))
	fits := make([]fitCounter, len(fleetPolicies))
	peak := 0
	var rates, perPlace, peaks []float64
	deadline := time.Now().Add(rc.Seconds)
	for sweep := 0; sweep == 0 || time.Now().Before(deadline); sweep++ {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		var sweepEvents, sweepPlaced int
		var sweepCPU time.Duration
		var scaled float64
		for i, name := range fleetPolicies {
			r.Attempted++
			// A policy's pass takes 0.2-3 s: each is scaled by a reading
			// taken just before it.
			ref, err := refReading(1)
			if err != nil {
				return nil, err
			}
			refs = append(refs, ms(ref))
			run, err := simulateFleet(l, name, rc.Seed, traced)
			if err != nil {
				r.Failed++
				r.fail("sim-fleet %s: %v", name, err)
				continue
			}
			sweepEvents += run.events
			sweepCPU += run.cpu
			sweepPlaced += l.Len()
			scaled += atRefSpeed(run.cpu, ref)
			d := newDigest("sim-fleet", rc.Seed)
			resultDigest(d, name, run.res)
			if sweep == 0 {
				if err := check.Result(l, run.res); err != nil {
					r.Failed++
					r.fail("sim-fleet %s: %v", name, err)
				}
				digests[i] = d.sum()
				ratios[i] = run.res.Cost / lb
				peak = max(peak, run.res.MaxConcurrentBins)
			} else if got := d.sum(); got != digests[i] {
				r.Failed++
				r.fail("sim-fleet %s: sweep %d produced %s, sweep 0 %s", name, sweep, got, digests[i])
			}
			events[i] += run.events
			stepTime[i] += run.stepTime
			fits[i].fits += run.fits.fits
			fits[i].selects += run.fits.selects
		}
		rates = append(rates, float64(sweepEvents)/sweepCPU.Seconds())
		perPlace = append(perPlace, scaled*1e6/float64(sweepPlaced))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss)
	}
	fmt.Fprintf(os.Stderr, "perfbench: sim-fleet: %d items, %d sweeps, peak %d open bins; reference kernel %.2f ms\n", l.Len(), len(rates), peak, median(refs))

	d := newDigest("sim-fleet", rc.Seed)
	for _, s := range digests {
		d.str(s)
	}
	r.Digest = d.sum()
	r.E2E = []metric{
		{Name: "setup_s", Unit: "s", Value: median(setups)},
		{Name: "sim_cpu_us_per_place", Unit: "us", Value: median(perPlace)},
		{Name: "cost_ratio", Unit: "ratio", Value: mean(ratios)},
		{Name: "max_rss_mb", Unit: "MB", Value: slices.Min(peaks)},
	}
	r.Unbounded = []metric{{Name: "sim_events_per_s", Unit: "1/s", Value: median(rates)}}
	if traced {
		got := map[string]float64{
			"core.open_bins.peak": float64(peak),
			"workload.gen_s":      median(gens),
			"host.ref_ms":         median(refs),
		}
		for i, name := range fleetPolicies {
			if stepTime[i] > 0 {
				got["core.events_per_s."+name] = float64(events[i]) / stepTime[i].Seconds()
			}
			if fits[i].selects > 0 {
				got["core.fit_checks_per_select."+name] = float64(fits[i].fits) / float64(fits[i].selects)
			}
		}
		r.Layer = got
	}
	return r, nil
}

// sim-paper runs the paper's Figure 4 grid (uniform model, d ∈ {1,2,5}, the
// μ sweep, n = 1000, the seven policies) at paperInstances instances per
// cell, on every CPU.
const (
	paperInstances = 2
	// paperSample is how many shards the public-call replica recomputes.
	paperSample = 24
)

func paperConfig(seed int64, instances int) experiments.Figure4Config {
	cfg := experiments.DefaultFigure4()
	cfg.Instances = instances
	cfg.Seed = seed
	cfg.Workers = runtime.NumCPU()
	return cfg
}

// paperReplica recomputes one Figure 4 shard through public calls alone:
// the shard's seed derivation, workload.Uniform, lowerbound.IntegralBound
// and core.Simulate. It adds each call's time to t.
func paperReplica(cfg experiments.Figure4Config, shard int, t *[3]time.Duration) (float64, error) {
	nP := len(cfg.Policies)
	policy := cfg.Policies[shard%nP]
	rest := shard / nP
	inst, cell := rest%cfg.Instances, rest/cfg.Instances
	d, mu := cfg.Ds[cell/len(cfg.Mus)], cfg.Mus[cell%len(cfg.Mus)]
	seed := parallel.SeedFor(cfg.Seed^(int64(d)<<32)^(int64(mu)<<16), inst)

	begin := time.Now()
	l, err := workload.Uniform(workload.UniformConfig{D: d, N: cfg.N, Mu: mu, T: cfg.T, B: cfg.B}, seed)
	if err != nil {
		return 0, err
	}
	t[0] += time.Since(begin)
	begin = time.Now()
	lb := lowerbound.IntegralBound(l)
	t[1] += time.Since(begin)
	p, err := core.NewPolicy(policy, seed)
	if err != nil {
		return 0, err
	}
	begin = time.Now()
	res, err := core.Simulate(l, p)
	if err != nil {
		return 0, err
	}
	t[2] += time.Since(begin)
	return res.Cost / lb, nil
}

// runSimPaper repeats the sweep until the window closes. Every sweep must
// reproduce the first bit for bit, and a seeded sample of shards must equal
// the public-call replica.
func runSimPaper(rc runConfig) (*report, error) {
	var setups, refs []float64
	for i := 0; i < setupRepeats; i++ {
		// Set-up is a warm-up sweep over the d = 1 panel, one instance, on
		// one worker: two workers' CPU time moved by 30% with the host's
		// load between passes, one worker's by half that.
		ref, err := refReading(1)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ms(ref))
		cpu0 := cpuTime()
		warm := paperConfig(rc.Seed, 1)
		warm.Ds = warm.Ds[:1]
		warm.Workers = 1
		if _, err := experiments.RunFigure4(warm); err != nil {
			return nil, err
		}
		setups = append(setups, atRefSpeed(cpuTime()-cpu0, ref))
	}
	cfg := paperConfig(rc.Seed, paperInstances)
	// Every run is fault-free, so each item makes exactly two engine
	// events: its arrival and its departure.
	events := float64(cfg.ShardCount() * 2 * cfg.N)
	r := &report{}
	var first []float64
	var rates, perPlace, busy, peaks []float64
	deadline := time.Now().Add(rc.Seconds)
	for sweep := 0; sweep == 0 || time.Now().Before(deadline); sweep++ {
		r.Attempted++
		// The reading runs on as many threads as the sweep has workers.
		ref, err := refReading(cfg.Workers)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ms(ref))
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		cpu0, begin := cpuTime(), time.Now()
		// RunFigure4 is exactly these two calls; the gate needs the raw
		// per-shard ratios the first one returns.
		sw, err := experiments.RunFigure4Sweep(cfg)
		if err == nil {
			_, err = experiments.Figure4SweepResult(sw)
		}
		wall, cpu := time.Since(begin), cpuTime()-cpu0
		if err != nil {
			r.Failed++
			r.fail("sim-paper sweep %d: %v", sweep, err)
			continue
		}
		ratios, err := sw.Dense()
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss)
		rates = append(rates, events/cpu.Seconds())
		perPlace = append(perPlace, atRefSpeed(cpu, ref)*1e6/(events/2))
		busy = append(busy, cpu.Seconds()/(wall.Seconds()*float64(cfg.Workers)))
		if first == nil {
			first = ratios
			continue
		}
		for i := range ratios {
			if math.Float64bits(ratios[i]) != math.Float64bits(first[i]) {
				r.Failed++
				r.fail("sim-paper sweep %d: shard %d ratio %v, sweep 0 %v", sweep, i, ratios[i], first[i])
				break
			}
		}
	}
	if first == nil {
		return nil, fmt.Errorf("sim-paper: no sweep completed")
	}

	var spent [3]time.Duration
	rng := rand.New(rand.NewSource(rc.Seed))
	for k := 0; k < paperSample; k++ {
		shard := rng.Intn(len(first))
		got, err := paperReplica(cfg, shard, &spent)
		if err != nil {
			r.fail("sim-paper replica shard %d: %v", shard, err)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(first[shard]) {
			r.fail("sim-paper shard %d: sweep ratio %v, replica %v", shard, first[shard], got)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: sim-paper: %d shards, %d sweeps; reference kernel %.2f ms\n", len(first), len(rates), median(refs))

	d := newDigest("sim-paper", rc.Seed)
	for _, x := range first {
		d.f64(x)
	}
	r.Digest = d.sum()
	// max_rss_mb is the lowest per-sweep peak: how far the collector lags
	// the two workers moved one sweep's peak between 16 and 31 MB.
	r.E2E = []metric{
		{Name: "setup_s", Unit: "s", Value: median(setups)},
		{Name: "sim_cpu_us_per_place", Unit: "us", Value: median(perPlace)},
		{Name: "cost_ratio", Unit: "ratio", Value: mean(first)},
		{Name: "max_rss_mb", Unit: "MB", Value: slices.Min(peaks)},
	}
	r.Unbounded = []metric{{Name: "sim_events_per_s", Unit: "1/s", Value: median(rates)}}
	if rc.Tracer != nil {
		per := func(t time.Duration) float64 { return ms(t) / paperSample }
		r.Layer = map[string]float64{
			"parallel.busy_share":          median(busy),
			"workload.gen_ms_per_instance": per(spent[0]),
			"lowerbound.ms_per_instance":   per(spent[1]),
			"core.simulate_ms_per_run":     per(spent[2]),
			"host.ref_ms":                  median(refs),
		}
	}
	return r, nil
}
