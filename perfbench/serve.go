package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dvbp/internal/item"
	"dvbp/internal/metrics"
	"dvbp/internal/parallel"
	"dvbp/internal/server"
	"dvbp/internal/vfs"
	"dvbp/internal/workload"
)

// serveSpec is one serving workload: the tenants it creates, the item
// stream each tenant's writer posts, and the paced reader.
type serveSpec struct {
	name    string
	tenants []server.TenantConfig
	// stream returns tenant i's items in arrival order, at least n of them.
	stream func(seed int64, i, n int) ([]item.Item, error)
	// readRate is the paced reader's reads per second (0: no reader). Every
	// third read lists placements from a cursor; the others read status.
	readRate float64
}

// Serving parameters shared by both serve workloads.
const (
	// writeRate paces each closed-loop writer in the window: it sends
	// placement k when placement k-1 is acknowledged, but not before
	// k/writeRate seconds into the window. The rate sits below the slowest
	// disk measured, so a run's work, and with it the tenant state, does not
	// depend on the disk.
	writeRate = 400
	// burstPlaces placements per writer, unpaced, follow the window; their
	// rate is place_per_s, the one the server sets.
	burstPlaces = 1000
	// digestAcks is how many of each tenant's first acknowledgements the
	// digest covers: the paced writers always get that far, and what they
	// acknowledge does not depend on timing.
	digestAcks = 64
	// warmupReads status reads per tenant open the connections and run the
	// HTTP path once before timing. They never reach the disk.
	warmupReads = 32
	// setupRepeats set-ups run per workload run; setup_s is the median of
	// their process CPU times, each scaled to the reference speed by a
	// reading taken just before it (CPU time, not wall time: the host's steal
	// moved the wall time of one set-up by 40% between passes). A serve
	// set-up takes 10-25 ms of CPU and varies by ±15% from one to the next:
	// over ten runs the median of 5 spread by 0.3, the median of 9 by half.
	setupRepeats = 9
	// replicaRepeats replays of the tenants' engines give
	// sim_cpu_us_per_place its median.
	replicaRepeats = 7
	// recoverRepeats reopenings of the data directory; recover_s is
	// the fastest, the one least disturbed by other tenants of the machine.
	recoverRepeats = 7
	// calibSyncs is the length of the fsync burst timed before the window.
	calibSyncs = 200
	// reqHeader carries the client span's ID to the handler wrapper.
	reqHeader = "X-Perfbench-Request"
)

// servePlace: two writers, each on its own FirstFit tenant, posting the
// paper's uniform-model items (d=2, durations 1..10, about 6 arrivals per
// time unit, so each fleet stays near 20 bins). A checkpoint every 256
// events puts one in about every 128th placement.
var servePlace = serveSpec{
	name: "serve-place",
	tenants: []server.TenantConfig{
		{Name: "place0", Dim: 2, Policy: "FirstFit", CheckpointEvery: 256},
		{Name: "place1", Dim: 2, Policy: "FirstFit", CheckpointEvery: 256},
	},
	stream: uniformStream,
}

// serveMixed: one writer replaying an Azure-like trace into a BestFit
// tenant, beside a paced reader.
var serveMixed = serveSpec{
	name: "serve-mixed",
	tenants: []server.TenantConfig{
		{Name: "mixed", Dim: 2, Policy: "BestFit", CheckpointEvery: 256},
	},
	stream:   azureStream,
	readRate: 120,
}

// uniformStream concatenates instances of the paper's uniform model
// (workload.Uniform, Table 2 sizes and durations with μ = 10), each shifted
// past the previous one's arrival window, so the stream never runs dry.
func uniformStream(seed int64, i, n int) ([]item.Item, error) {
	cfg := workload.UniformConfig{D: 2, N: 1000, Mu: 10, T: 170, B: 100}
	width := float64(cfg.T - cfg.Mu + 1)
	out := make([]item.Item, 0, n+cfg.N)
	for k := 0; len(out) < n; k++ {
		l, err := workload.Uniform(cfg, parallel.Derive(seed, int64(i), int64(k)))
		if err != nil {
			return nil, err
		}
		chunk := append([]item.Item(nil), l.Items...)
		sort.SliceStable(chunk, func(a, b int) bool { return chunk[a].Arrival < chunk[b].Arrival })
		shift := float64(k) * width
		for _, it := range chunk {
			it.Arrival += shift
			it.Departure += shift
			out = append(out, it)
		}
	}
	return out, nil
}

// azureStream is an Azure-like d=2 trace at 22× the generator's base rate:
// long heavy-tailed sessions that build a fleet of a few hundred bins.
func azureStream(seed int64, i, n int) ([]item.Item, error) {
	// About 66 arrivals per time unit at this rate.
	l, err := workload.Datacenter(azureLike(22, float64(n)/60+10), parallel.Derive(seed, int64(i)))
	if err != nil {
		return nil, err
	}
	if l.Len() < n {
		return nil, fmt.Errorf("azure stream has %d items, want %d", l.Len(), n)
	}
	return l.Items, nil
}

// tenantRun is one tenant's load: its stream and the acknowledgements its
// writer collected, in order.
type tenantRun struct {
	cfg   server.TenantConfig
	items []item.Item
	acks  []server.PlaceResult
	// refused is set once a place fails; the writer stops there so the
	// items the server admitted stay a prefix of the stream.
	refused bool
}

// serveEnv is a live server with its tenants: an in-process store behind a
// real loopback listener, driven over HTTP.
type serveEnv struct {
	spec    serveSpec
	rc      runConfig
	dir     string
	tenants []*tenantRun
	client  *http.Client
	hooks   *handlerTrace // nil when untraced
	fs      *timingFS     // nil when untraced

	store *server.Store
	http  *http.Server
	done  chan struct{}
	base  string
}

// limits returns the server limits: the defaults, with the timing
// filesystem in traced runs.
func (e *serveEnv) limits() server.Limits {
	if e.fs != nil {
		return server.Limits{FS: e.fs}
	}
	return server.Limits{}
}

// start opens the store in e.dir (recovering whatever it holds) and serves
// it on a fresh loopback listener. It returns the open time.
func (e *serveEnv) start() (time.Duration, error) {
	reg := metrics.NewRegistry()
	begin := time.Now()
	store, err := server.OpenStore(e.dir, e.limits(), reg)
	if err != nil {
		return 0, err
	}
	opened := time.Since(begin)
	var h http.Handler = server.New(store, reg)
	if e.hooks != nil {
		e.hooks.inner = h
		h = e.hooks
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return 0, err
	}
	e.store = store
	e.http = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	e.done = make(chan struct{})
	e.base = "http://" + ln.Addr().String()
	go func() {
		defer close(e.done)
		e.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return opened, nil
}

// stop shuts the listener down, waits for in-flight handlers, and drains
// and closes the store.
func (e *serveEnv) stop() {
	if e.http == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.http.Shutdown(ctx)
	<-e.done
	e.client.CloseIdleConnections()
	e.store.Close()
	e.http, e.store = nil, nil
}

// call sends one request and decodes a 2xx JSON answer into out. It never
// retries. A non-2xx status is returned as an error naming the status.
func (e *serveEnv) call(method, path string, body, out any, spanName string) error {
	var id int64
	var start time.Duration
	if tr := e.rc.Tracer; tr != nil {
		id, start = tr.newID(), tr.now()
	}
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return err
	}
	if id != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	if id != 0 {
		e.rc.Tracer.record(span{ID: id, Req: id, Name: spanName, Start: start, End: e.rc.Tracer.now()})
	}
	return nil
}

type placeBody struct {
	Arrival   float64   `json:"arrival"`
	Departure float64   `json:"departure"`
	Size      []float64 `json:"size"`
}

// place posts tenant t's next item and records the acknowledgement.
func (e *serveEnv) place(t *tenantRun) error {
	it := t.items[len(t.acks)]
	var ack server.PlaceResult
	err := e.call(http.MethodPost, "/v1/tenants/"+t.cfg.Name+"/place",
		placeBody{it.Arrival, it.Departure, it.Size}, &ack, "client.place")
	if err != nil {
		t.refused = true
		return err
	}
	t.acks = append(t.acks, ack)
	return nil
}

// setupServe builds the item streams, starts the server, creates the
// tenants and makes the warm-up reads.
func setupServe(spec serveSpec, rc runConfig) (*serveEnv, error) {
	e := &serveEnv{
		spec: spec, rc: rc, dir: filepath.Join(rc.Work, "data"),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
		}},
	}
	n := int(writeRate*rc.Seconds.Seconds()) + 1 + burstPlaces
	for i, cfg := range spec.tenants {
		cfg.Seed = rc.Seed
		items, err := spec.stream(rc.Seed, i, n)
		if err != nil {
			return nil, err
		}
		e.tenants = append(e.tenants, &tenantRun{cfg: cfg, items: items})
	}
	if rc.Tracer != nil {
		e.hooks = &handlerTrace{tr: rc.Tracer, inflight: make(map[string][2]int64)}
		e.fs = newTimingFS(vfs.OS{}, e.dir, rc.Tracer, e.hooks.owner)
	}
	if _, err := e.start(); err != nil {
		return nil, err
	}
	for _, t := range e.tenants {
		if err := e.call(http.MethodPost, "/v1/tenants", t.cfg, nil, "client.create"); err != nil {
			e.stop()
			return nil, err
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(e.tenants))
	for i, t := range e.tenants {
		wg.Add(1)
		go func(i int, t *tenantRun) {
			defer wg.Done()
			for k := 0; k < warmupReads && errs[i] == nil; k++ {
				errs[i] = e.call(http.MethodGet, "/v1/tenants/"+t.cfg.Name, nil, nil, "client.warmup")
			}
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

// windowLoad is what the measured window observed.
type windowLoad struct {
	start, end          time.Time
	places, placeFailed int
	reads, readFailed   int
	placeLat, readLat   []float64 // ms; a failure counts as the window length
	// ms each writer and the reader sent after the due time
	placeLate, readLate []float64
}

// runWindow drives every tenant's closed-loop writer, plus the paced reader
// when the spec has one, for rc.Seconds.
func (e *serveEnv) runWindow() *windowLoad {
	w := &windowLoad{start: time.Now()}
	deadline := w.start.Add(e.rc.Seconds)
	miss := ms(e.rc.Seconds)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, t := range e.tenants {
		wg.Add(1)
		go func(t *tenantRun) {
			defer wg.Done()
			var lat, late []float64
			failed := 0
			for k := 0; !t.refused && len(t.acks) < len(t.items) && time.Now().Before(deadline); k++ {
				due := w.start.Add(time.Duration(float64(k) / writeRate * float64(time.Second)))
				if !due.Before(deadline) {
					break
				}
				time.Sleep(time.Until(due))
				begin := time.Now()
				late = append(late, ms(begin.Sub(due)))
				if err := e.place(t); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s: place failed: %v\n", e.spec.name, err)
					failed++
					lat = append(lat, miss)
					break
				}
				lat = append(lat, ms(time.Since(begin)))
			}
			mu.Lock()
			w.places += len(lat)
			w.placeFailed += failed
			w.placeLat = append(w.placeLat, lat...)
			w.placeLate = append(w.placeLate, late...)
			mu.Unlock()
		}(t)
	}
	if e.spec.readRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.pacedReads(w, deadline, miss)
		}()
	}
	wg.Wait()
	w.end = time.Now()
	return w
}

// runBurst drives every tenant's writer closed loop without pacing, for
// burstPlaces placements each and with no reader, so the placement rate is
// the one the server sets. It returns the placements it attempted, the ones
// that failed, and the acknowledged placements per wall second.
func (e *serveEnv) runBurst() (attempted, failed int, rate float64) {
	begin := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, t := range e.tenants {
		wg.Add(1)
		go func(t *tenantRun) {
			defer wg.Done()
			n, bad := 0, 0
			for ; n < burstPlaces && !t.refused && len(t.acks) < len(t.items); n++ {
				if err := e.place(t); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s: burst place failed: %v\n", e.spec.name, err)
					bad++
				}
			}
			mu.Lock()
			attempted += n
			failed += bad
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	return attempted, failed, float64(attempted-failed) / time.Since(begin).Seconds()
}

// pacedReads is the open-loop reader: read k is due at start + k/rate and
// is timed from its due time, so a stall also delays the reads behind it.
// Two status reads come before each placements read, so the median falls
// among status reads and the 99th percentile among placements reads,
// instead of on the boundary between the two.
func (e *serveEnv) pacedReads(w *windowLoad, deadline time.Time, miss float64) {
	t := e.tenants[0]
	period := time.Duration(float64(time.Second) / e.spec.readRate)
	cursor := 0
	for k := 0; ; k++ {
		due := w.start.Add(time.Duration(k) * period)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		w.readLate = append(w.readLate, ms(time.Since(due)))
		var err error
		if k%3 != 2 {
			var st server.TenantStatus
			err = e.call(http.MethodGet, "/v1/tenants/"+t.cfg.Name, nil, &st, "client.read")
		} else {
			var pl server.PlacementsResult
			err = e.call(http.MethodGet, fmt.Sprintf("/v1/tenants/%s/placements?from=%d", t.cfg.Name, cursor), nil, &pl, "client.read")
			cursor = pl.Total
		}
		w.reads++
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: read failed: %v\n", e.spec.name, err)
			w.readFailed++
			w.readLat = append(w.readLat, miss)
			continue
		}
		w.readLat = append(w.readLat, ms(time.Since(due)))
	}
}

// serverCounters reads the program's own metrics endpoint.
func (e *serveEnv) serverCounters() (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	err := e.call(http.MethodGet, "/metrics?format=json", nil, &snap, "client.metrics")
	return snap, err
}

// calibrate times a burst of small write+fsync pairs on the data
// directory's filesystem: the disk weather the window ran in.
func calibrate(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "calibrate.tmp"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 128)
	lat := make([]float64, 0, calibSyncs)
	for i := 0; i < calibSyncs; i++ {
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		begin := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		lat = append(lat, ms(time.Since(begin)))
	}
	p50, _ := percentile(lat, 0.5)
	return p50, nil
}

// settleDisk flushes every filesystem (sync), so the writeback and discards
// left by earlier phases are not charged to the next timed one.
func settleDisk() { syscall.Sync() }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// copyDir copies the regular files of src (one level) into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runServe is one run of a serving workload: set-up (repeated), the
// measured window, the unpaced burst, then the correctness gate across a
// restart.
func runServe(spec serveSpec, rc runConfig) (*report, error) {
	var setups, refs []float64
	var e *serveEnv
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.stop()
		}
		// Delete the previous set-up's data and flush the deletion before
		// timing, so its writeback is not charged to this set-up's fsyncs.
		if err := os.RemoveAll(filepath.Join(rc.Work, "data")); err != nil {
			return nil, err
		}
		settleDisk()
		ref, err := refReading(1)
		if err != nil {
			return nil, err
		}
		cpu0 := cpuTime()
		if e, err = setupServe(spec, rc); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		setups = append(setups, atRefSpeed(cpuTime()-cpu0, ref))
		refs = append(refs, ms(ref))
	}
	defer e.stop()

	settleDisk()
	calib, err := calibrate(e.dir)
	if err != nil {
		return nil, err
	}
	before, err := e.serverCounters()
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	w := e.runWindow()
	cpu := cpuTime() - cpu0
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	after, err := e.serverCounters()
	if err != nil {
		return nil, err
	}
	acked := w.places - w.placeFailed
	if acked == 0 {
		return nil, fmt.Errorf("%s: no placement acknowledged in the window", spec.name)
	}
	total := 0
	for _, t := range e.tenants {
		total += len(t.acks)
	}
	diskBytes, err := dirBytes(e.dir)
	if err != nil {
		return nil, err
	}
	settleDisk()
	burst, burstFailed, placeRate := e.runBurst()
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d placements (%d failed), %d reads (%d failed) in %v; calibration fsync p50 %.3f ms; unpaced burst %d placements at %.0f/s\n",
		spec.name, w.places, w.placeFailed, w.reads, w.readFailed, w.end.Sub(w.start), calib, burst, placeRate)

	// Restart: close everything, then time reopening the data directory.
	e.stop()
	if rc.Tracer != nil {
		if err := copyDir(filepath.Join(e.dir, e.tenants[0].cfg.Name), filepath.Join(rc.Work, "copy")); err != nil {
			return nil, err
		}
	}
	settleDisk()
	var recovers []float64
	for i := 0; i < recoverRepeats; i++ {
		opened, err := e.start()
		if err != nil {
			return nil, fmt.Errorf("%s: reopening the data directory: %w", spec.name, err)
		}
		recovers = append(recovers, opened.Seconds())
		if i < recoverRepeats-1 {
			e.stop()
		}
	}

	r := &report{Attempted: w.places + w.reads + burst, Failed: w.placeFailed + w.readFailed + burstFailed}
	g, err := e.gate(r)
	if err != nil {
		return nil, err
	}
	r.Digest = g.digest

	// The tenants' engines, replayed alone over the acknowledged items,
	// give sim_cpu_us_per_place; one replay of every tenant takes 40-60 ms
	// of CPU, so it is the median of replicaRepeats, each scaled by a
	// reading just before it.
	var replicas []float64
	for k := 0; k < replicaRepeats; k++ {
		ref, err := refReading(1)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ms(ref))
		var spent time.Duration
		for _, t := range e.tenants {
			c, err := replicaCPU(t.cfg, t.items[:len(t.acks)])
			if err != nil {
				return nil, err
			}
			spent += c
		}
		replicas = append(replicas, atRefSpeed(spent, ref)*1e6/float64(total))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: reference kernel %.2f ms\n", spec.name, median(refs))

	r.E2E = []metric{
		{Name: "setup_s", Unit: "s", Value: median(setups)},
		{Name: "sim_cpu_us_per_place", Unit: "us", Value: median(replicas)},
		{Name: "cost_ratio", Unit: "ratio", Value: g.costRatio},
		{Name: "max_rss_mb", Unit: "MB", Value: rss},
	}
	r.Unbounded = []metric{
		{Name: "cpu_us_per_place", Unit: "us", Value: float64(cpu.Microseconds()) / float64(acked)},
		{Name: "disk_bytes_per_place", Unit: "B", Value: float64(diskBytes) / float64(total)},
		{Name: "place_per_s", Unit: "1/s", Value: placeRate},
		{Name: "recover_s", Unit: "s", Value: slices.Min(recovers)},
	}
	r.Unbounded = appendPercentile(r.Unbounded, "place_p50_ms", w.placeLat, 0.50)
	r.Unbounded = appendPercentile(r.Unbounded, "place_p99_ms", w.placeLat, 0.99)
	if spec.readRate > 0 {
		r.Unbounded = appendPercentile(r.Unbounded, "read_p50_ms", w.readLat, 0.50)
		r.Unbounded = appendPercentile(r.Unbounded, "read_p99_ms", w.readLat, 0.99)
	}
	if rc.Tracer != nil {
		r.Layer, err = e.layers(w, before, after, calib, g, acked)
		if err != nil {
			return nil, err
		}
		r.Layer["host.ref_ms"] = median(refs)
	}
	return r, nil
}

// appendPercentile appends the q-quantile of samples as a metric, or notes
// on stderr that too few samples lie beyond it to report it.
func appendPercentile(ms []metric, name string, samples []float64, q float64) []metric {
	v, ok := percentile(append([]float64(nil), samples...), q)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s not reported: %d samples leave fewer than %d beyond it\n", name, len(samples), minTail)
		return ms
	}
	return append(ms, metric{Name: name, Unit: "ms", Value: v})
}

// handlerTrace wraps the server's http.Handler: it records one span per
// request under the client's request ID, and publishes the mutation in
// flight on each tenant so the timing filesystem can attribute its spans.
type handlerTrace struct {
	inner http.Handler
	tr    *tracer

	mu       sync.Mutex
	inflight map[string][2]int64 // tenant → (request ID, handler span ID)
}

// owner returns the mutation in flight on tenant (zeros when none).
func (h *handlerTrace) owner(tenant string) (int64, int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := h.inflight[tenant]
	return v[0], v[1]
}

// ServeHTTP implements http.Handler.
func (h *handlerTrace) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	id := h.tr.newID()
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/v1/tenants/"), "/")
	name, tenant, mutation := "server.other", "", false
	switch {
	case !strings.HasPrefix(r.URL.Path, "/v1/tenants/"):
	case r.Method == http.MethodPost && len(parts) == 2 && parts[1] == "place":
		name, tenant, mutation = "server.place", parts[0], true
	case r.Method == http.MethodPost && len(parts) == 2 && parts[1] == "advance":
		name, tenant, mutation = "server.advance", parts[0], true
	case r.Method == http.MethodGet && len(parts) == 1:
		name = "server.read.status"
	case r.Method == http.MethodGet && len(parts) == 2 && parts[1] == "placements":
		name = "server.read.placements"
	}
	if mutation {
		h.mu.Lock()
		h.inflight[tenant] = [2]int64{req, id}
		h.mu.Unlock()
	}
	start := h.tr.now()
	h.inner.ServeHTTP(w, r)
	end := h.tr.now()
	if mutation {
		h.mu.Lock()
		delete(h.inflight, tenant)
		h.mu.Unlock()
	}
	h.tr.record(span{ID: id, Parent: req, Req: req, Name: name, Start: start, End: end})
}
