package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dvbp/internal/core"
	"dvbp/internal/metrics"
	"dvbp/internal/persist"
	"dvbp/internal/vfs"
)

// fleetPolicies is sim-fleet's fixed policy list: the paper's seven Any Fit
// policies, then FARB and DotProduct.
var fleetPolicies = append(core.PolicyNames(), "FARB", "DotProduct")

// e2eMetrics lists every end-to-end metric. The bounded ones are gated on
// in BENCHMARK.json, and every workload must print each of them. The others
// only the traced invocation prints, beside the per-layer metrics: three
// exist on only some workloads (cpu_us_per_place and disk_bytes_per_place
// on serve-*, sim_events_per_s on sim-*), and the rest read the shared
// host's weather more than the code (README.md gives their measured
// spread); so does cpu_us_per_place. higherBetter orients the tracing
// overhead, which the traced invocation reports for all of them.
var e2eMetrics = []struct {
	name, unit            string
	bounded, higherBetter bool
}{
	{"setup_s", "s", true, false},
	{"sim_cpu_us_per_place", "us", true, false},
	{"cost_ratio", "ratio", true, false},
	{"max_rss_mb", "MB", true, false},
	{"cpu_us_per_place", "us", false, false},
	{"disk_bytes_per_place", "B", false, false},
	{"sim_events_per_s", "1/s", false, true},
	{"place_per_s", "1/s", false, true},
	{"place_p50_ms", "ms", false, false},
	{"place_p99_ms", "ms", false, false},
	{"read_p50_ms", "ms", false, false},
	{"read_p99_ms", "ms", false, false},
	{"recover_s", "s", false, false},
}

// layerMetrics lists every metric of a traced invocation in output order:
// the per-layer metrics, the unbounded end-to-end ones, and the tracing
// overheads. A workload that does not exercise a layer reports it as 0.
func layerMetrics() []metric {
	ms := []metric{
		{Name: "server.place_ms.p50", Unit: "ms"},
		{Name: "server.place_ms.p99", Unit: "ms"},
		{Name: "server.place_self_ms.p50", Unit: "ms"},
		{Name: "server.read_ms.p50", Unit: "ms"},
		{Name: "server.client_ms.p50", Unit: "ms"},
		{Name: "server.batch_size.mean", Unit: "count"},
		{Name: "server.io_retries", Unit: "count"},
		{Name: "server.backpressure", Unit: "count"},
		{Name: "server.deadlines", Unit: "count"},
		{Name: "load.place_late_ms.p99", Unit: "ms"},
		{Name: "load.read_late_ms.p99", Unit: "ms"},
		{Name: "vfs.fsyncs_per_place", Unit: "count"},
		{Name: "vfs.fsync_ms.p50", Unit: "ms"},
		{Name: "vfs.fsync_ms.p99", Unit: "ms"},
		{Name: "vfs.fsync_share", Unit: "ratio"},
		{Name: "vfs.write_bytes_per_place", Unit: "B"},
		{Name: "vfs.calib_fsync_ms.p50", Unit: "ms"},
		{Name: "persist.oplog_sync_ms.p50", Unit: "ms"},
		{Name: "persist.wal_sync_ms.p50", Unit: "ms"},
		{Name: "persist.checkpoint_ms.p50", Unit: "ms"},
		{Name: "persist.checkpoint_ms.max", Unit: "ms"},
		{Name: "persist.checkpoint_bytes.mean", Unit: "B"},
		{Name: "persist.compactions", Unit: "count"},
		{Name: "persist.oplog_read_ms", Unit: "ms"},
		{Name: "persist.recover_ms", Unit: "ms"},
		{Name: "persist.recover_replayed", Unit: "count"},
	}
	for _, p := range fleetPolicies {
		ms = append(ms, metric{Name: "core.events_per_s." + p, Unit: "1/s"})
	}
	for _, p := range fleetPolicies {
		ms = append(ms, metric{Name: "core.fit_checks_per_select." + p, Unit: "count"})
	}
	ms = append(ms,
		metric{Name: "core.open_bins.peak", Unit: "count"},
		metric{Name: "core.step_us_per_place", Unit: "us"},
		metric{Name: "core.snapshot_ms", Unit: "ms"},
		metric{Name: "metrics.fragof_us", Unit: "us"},
		metric{Name: "parallel.busy_share", Unit: "ratio"},
		metric{Name: "workload.gen_ms_per_instance", Unit: "ms"},
		metric{Name: "lowerbound.ms_per_instance", Unit: "ms"},
		metric{Name: "core.simulate_ms_per_run", Unit: "ms"},
		metric{Name: "workload.gen_s", Unit: "s"},
		metric{Name: "host.ref_ms", Unit: "ms"},
	)
	for _, e := range e2eMetrics {
		if !e.bounded {
			ms = append(ms, metric{Name: e.name, Unit: e.unit})
		}
	}
	for _, e := range e2eMetrics {
		ms = append(ms, metric{Name: "trace.overhead." + e.name, Unit: "ratio"})
	}
	return ms
}

// fillLayers returns every per-layer metric, taking values from got (and 0
// for the rest). A name in got that is not a per-layer metric is a bug.
func fillLayers(got map[string]float64) ([]metric, error) {
	ms := layerMetrics()
	known := make(map[string]bool, len(ms))
	for i := range ms {
		known[ms[i].Name] = true
		ms[i].Value = got[ms[i].Name]
	}
	for name := range got {
		if !known[name] {
			return nil, fmt.Errorf("per-layer metric %s is not declared", name)
		}
	}
	return ms, nil
}

// pct returns a percentile of span durations in ms, or 0 (noted on
// stderr) when too few samples lie beyond it.
func pct(name string, ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	v, ok := percentile(xs, q)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s not reported: %d samples\n", name, len(ds))
		return 0
	}
	return v
}

// counterDelta is the change of a server counter across the window.
func counterDelta(before, after metrics.Snapshot, name string) float64 {
	a, _ := after.Find(name)
	b, _ := before.Find(name)
	return a.Value - b.Value
}

// layers derives the serving workloads' per-layer metrics from the spans
// recorded inside the measured window, the server's own counters, the
// replica's timings, and a recovery run on a copy of one tenant directory.
func (e *serveEnv) layers(w *windowLoad, before, after metrics.Snapshot, calib float64, g *serveGate, acked int) (map[string]float64, error) {
	tr := e.rc.Tracer
	lo, hi := w.start.Sub(tr.origin), w.end.Sub(tr.origin)
	var all []span
	children := make(map[int64][]span)
	for _, s := range tr.snapshot() {
		if s.Start < lo || s.Start >= hi {
			continue
		}
		all = append(all, s)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var place, placeSelf, read, client, fsyncs, opsSync, walSync, ckpt []time.Duration
	var fsyncTotal, placeTotal time.Duration
	var written, ckptBytes, compactions int64
	for _, s := range all {
		switch {
		case s.Name == "server.place":
			place = append(place, s.dur())
			placeTotal += s.dur()
			placeSelf = append(placeSelf, selfTime(s, children[s.ID]))
		case strings.HasPrefix(s.Name, "server.read."):
			read = append(read, s.dur())
		case s.Name == "client.place":
			client = append(client, selfTime(s, children[s.ID]))
		case strings.HasPrefix(s.Name, "vfs.fsync."):
			fsyncs = append(fsyncs, s.dur())
			fsyncTotal += s.dur()
			switch s.Name {
			case "vfs.fsync.ops":
				opsSync = append(opsSync, s.dur())
			case "vfs.fsync.wal":
				walSync = append(walSync, s.dur())
			}
		case strings.HasPrefix(s.Name, "vfs.write."):
			written += s.Bytes
		case s.Name == "persist.atomic.snap":
			ckpt = append(ckpt, s.dur())
			ckptBytes += s.Bytes
		case s.Name == "persist.atomic.wal" || s.Name == "persist.atomic.ops":
			compactions++
		}
	}
	got := map[string]float64{
		"server.place_ms.p50":       pct("server.place_ms.p50", place, 0.50),
		"server.place_ms.p99":       pct("server.place_ms.p99", place, 0.99),
		"server.place_self_ms.p50":  pct("server.place_self_ms.p50", placeSelf, 0.50),
		"server.client_ms.p50":      pct("server.client_ms.p50", client, 0.50),
		"server.io_retries":         counterDelta(before, after, "dvbp_server_io_retries_total"),
		"server.backpressure":       counterDelta(before, after, "dvbp_server_backpressure_total"),
		"server.deadlines":          counterDelta(before, after, "dvbp_server_deadline_total"),
		"vfs.fsyncs_per_place":      float64(len(fsyncs)) / float64(acked),
		"vfs.fsync_ms.p50":          pct("vfs.fsync_ms.p50", fsyncs, 0.50),
		"vfs.fsync_ms.p99":          pct("vfs.fsync_ms.p99", fsyncs, 0.99),
		"vfs.write_bytes_per_place": float64(written) / float64(acked),
		"vfs.calib_fsync_ms.p50":    calib,
		"persist.oplog_sync_ms.p50": pct("persist.oplog_sync_ms.p50", opsSync, 0.50),
		"persist.wal_sync_ms.p50":   pct("persist.wal_sync_ms.p50", walSync, 0.50),
		"persist.checkpoint_ms.p50": pct("persist.checkpoint_ms.p50", ckpt, 0.50),
		"persist.compactions":       float64(compactions),
	}
	if len(read) > 0 {
		got["server.read_ms.p50"] = pct("server.read_ms.p50", read, 0.50)
	}
	for name, late := range map[string][]float64{"load.place_late_ms.p99": w.placeLate, "load.read_late_ms.p99": w.readLate} {
		if v, ok := percentile(append([]float64(nil), late...), 0.99); ok {
			got[name] = v
		}
	}
	if placeTotal > 0 {
		got["vfs.fsync_share"] = float64(fsyncTotal) / float64(placeTotal)
	}
	if n := len(ckpt); n > 0 {
		longest := time.Duration(0)
		for _, d := range ckpt {
			longest = max(longest, d)
		}
		got["persist.checkpoint_ms.max"] = ms(longest)
		got["persist.checkpoint_bytes.mean"] = float64(ckptBytes) / float64(n)
	}
	b, _ := before.Find("dvbp_server_batch_size")
	if a, _ := after.Find("dvbp_server_batch_size"); a.Count > b.Count {
		got["server.batch_size.mean"] = (a.Sum - b.Sum) / float64(a.Count-b.Count)
	}

	var stepTime, snap, frag time.Duration
	for _, rep := range g.replicas {
		stepTime += rep.stepTime
		snap = max(snap, rep.snapshot)
		frag = max(frag, rep.fragof)
	}
	placed := 0
	for _, rep := range g.replicas {
		placed += len(rep.decisions)
	}
	if placed > 0 {
		got["core.step_us_per_place"] = float64(stepTime.Microseconds()) / float64(placed)
	}
	got["core.snapshot_ms"] = ms(snap)
	got["metrics.fragof_us"] = float64(frag.Nanoseconds()) / 1e3

	if err := recoverCopy(e.tenants[0], filepath.Join(e.rc.Work, "copy"), got); err != nil {
		return nil, err
	}
	return got, nil
}

// recoverCopy times persist.ReadOpLog and persist.Recover, the two halves
// of a tenant's recovery, on a copy of its directory (median of
// recoverRepeats).
func recoverCopy(t *tenantRun, dir string, got map[string]float64) error {
	var reads, recovers []float64
	replayed := int64(0)
	for i := 0; i < recoverRepeats; i++ {
		begin := time.Now()
		logged, err := persist.ReadOpLog(vfs.OS{}, filepath.Join(dir, "ops.dvbp"), t.cfg.Name)
		if err != nil {
			return err
		}
		reads = append(reads, ms(time.Since(begin)))
		begin = time.Now()
		rec, err := persist.Recover(logged.List, persist.Config{
			Dir: dir, Label: t.cfg.Name, Every: t.cfg.CheckpointEvery, SyncEvery: 64,
			Compact: t.cfg.CheckpointEvery > 0,
		}, core.WithDynamicArrivals())
		if err != nil {
			return err
		}
		recovers = append(recovers, ms(time.Since(begin)))
		replayed = rec.Replayed
		if err := rec.Session.Close(); err != nil {
			return err
		}
	}
	got["persist.oplog_read_ms"] = median(reads)
	got["persist.recover_ms"] = median(recovers)
	got["persist.recover_replayed"] = float64(replayed)
	return nil
}
