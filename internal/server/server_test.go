package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/metrics"
	"dvbp/internal/vector"
)

// newTestServer opens a store over root and serves it via httptest. The
// returned closer is idempotent; tests that simulate a crash skip it.
func newTestServer(t testing.TB, root string, limits Limits) (*httptest.Server, *Store) {
	t.Helper()
	reg := metrics.NewRegistry()
	store, err := OpenStore(root, limits, reg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	ts := httptest.NewServer(New(store, reg))
	t.Cleanup(func() {
		ts.Close()
		store.Close()
	})
	return ts, store
}

// newLocalServer serves an already-built Server over httptest and returns
// its base URL. Unlike newTestServer it leaves the store's lifecycle to the
// caller (the crash-recovery tests abandon theirs on purpose).
func newLocalServer(t testing.TB, srv *Server) string {
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts.URL
}

// testClient is the client call sends through. Its Transport keeps up to 64
// idle connections per host, where http.DefaultClient keeps 2, so each of
// up to 64 concurrent callers keeps its own connection alive.
var testClient = func() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	return &http.Client{Transport: tr}
}()

// call issues one JSON request and decodes the JSON response, returning the
// status code. It reads every response body to its end, decoded or not, so
// the connection goes back to testClient's pool for the next call. A failed
// request or response is reported with t.Errorf and returns status 0, which
// every caller refuses, so concurrent clients may call it.
func call(t testing.TB, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Errorf("marshal: %v", err)
			return 0
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Errorf("request: %v", err)
		return 0
	}
	resp, err := testClient.Do(req)
	if err != nil {
		t.Errorf("%s %s: %v", method, url, err)
		return 0
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Errorf("%s %s: decoding response: %v", method, url, err)
			return 0
		}
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Errorf("%s %s: reading response: %v", method, url, err)
		return 0
	}
	return resp.StatusCode
}

func mustStatus(t testing.TB, want, got int, what string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: status %d, want %d", what, got, want)
	}
}

// streamItem is one scripted place request.
type streamItem struct {
	arrival, departure float64
	size               []float64
}

// stream builds a deterministic d-dimensional arrival stream with
// non-decreasing arrivals, simultaneous bursts, and varied durations.
func stream(d, n int, salt int) []streamItem {
	out := make([]streamItem, n)
	for i := 0; i < n; i++ {
		arr := float64((i + salt) / 3)
		size := make([]float64, d)
		for j := 0; j < d; j++ {
			size[j] = 0.05 + float64((i*(j+3)+salt)%7)*0.1
		}
		out[i] = streamItem{arrival: arr, departure: arr + 1 + float64((i*5+salt)%9), size: size}
	}
	return out
}

// referencePlacements runs the same stream single-threaded through a fresh
// engine and returns its placement records.
func referencePlacements(t testing.TB, cfg TenantConfig, items []streamItem) []PlacementRecord {
	t.Helper()
	l := item.NewList(cfg.Dim)
	for _, it := range items {
		l.Add(it.arrival, it.departure, vector.Vector(it.size))
	}
	p, err := core.NewPolicy(cfg.Policy, cfg.Seed)
	if err != nil {
		t.Fatalf("NewPolicy: %v", err)
	}
	res, err := core.Simulate(l, p)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	out := make([]PlacementRecord, 0, len(res.Placements))
	for _, pl := range res.Placements {
		out = append(out, PlacementRecord{Item: pl.ItemID, Bin: pl.BinID, Time: pl.Time})
	}
	return out
}

func TestServerTenantLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir(), Limits{})
	cfg := TenantConfig{Name: "acme", Dim: 2, Policy: "FirstFit", Seed: 1}

	var created TenantConfig
	mustStatus(t, http.StatusCreated, call(t, "POST", ts.URL+"/v1/tenants", cfg, &created), "create")
	if created != cfg {
		t.Fatalf("created %+v, want %+v", created, cfg)
	}
	mustStatus(t, http.StatusConflict, call(t, "POST", ts.URL+"/v1/tenants", cfg, nil), "duplicate create")

	var listed struct {
		Tenants []TenantConfig `json:"tenants"`
	}
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/v1/tenants", nil, &listed), "list")
	if len(listed.Tenants) != 1 || listed.Tenants[0] != cfg {
		t.Fatalf("listed %+v", listed)
	}

	// Place two items sharing an instant, advance past the first departure,
	// and read the status back.
	var p1, p2 PlaceResult
	mustStatus(t, http.StatusOK, call(t, "POST", ts.URL+"/v1/tenants/acme/place",
		placeBody{Arrival: f(0), Departure: f(2), Size: []float64{0.5, 0.5}}, &p1), "place 1")
	mustStatus(t, http.StatusOK, call(t, "POST", ts.URL+"/v1/tenants/acme/place",
		placeBody{Arrival: f(0), Duration: f(5), Size: []float64{0.5, 0.5}}, &p2), "place 2")
	if p1.Item != 0 || p2.Item != 1 || !p1.Opened || p1.Bin != p2.Bin {
		t.Fatalf("placements: %+v %+v (want both in bin %d)", p1, p2, p1.Bin)
	}

	var adv AdvanceResult
	mustStatus(t, http.StatusOK, call(t, "POST", ts.URL+"/v1/tenants/acme/advance",
		advanceBody{To: 3}, &adv), "advance")
	if adv.Events != 1 || adv.Served != 1 {
		t.Fatalf("advance: %+v, want 1 event, 1 served", adv)
	}

	var st TenantStatus
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/v1/tenants/acme", nil, &st), "status")
	if st.Items != 2 || st.Served != 1 || st.OpenBins != 1 || st.Watermark != 3 {
		t.Fatalf("status: %+v", st)
	}
	if st.Cost != 3 { // one bin open over [0, 3)
		t.Fatalf("cost %g, want 3", st.Cost)
	}

	var pls PlacementsResult
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/v1/tenants/acme/placements?from=1", nil, &pls), "placements")
	if pls.Total != 2 || len(pls.Placements) != 1 || pls.Placements[0].Item != 1 {
		t.Fatalf("placements: %+v", pls)
	}

	mustStatus(t, http.StatusOK, call(t, "DELETE", ts.URL+"/v1/tenants/acme", nil, nil), "delete")
	mustStatus(t, http.StatusNotFound, call(t, "GET", ts.URL+"/v1/tenants/acme", nil, nil), "status after delete")
}

func f(v float64) *float64 { return &v }

// TestServerStrandedAccounting pins the corrected per-dimension stranded
// metric on a mixed-imbalance fleet — the case the legacy dominant-dimension
// heuristic undercounts. Two bins with mirrored loads (0.875, 0.25) and
// (0.25, 0.875) strand 0.625 capacity in EACH dimension (each bin's free
// capacity is locked behind its own binding dimension), while the server's
// retired OpenBins − max_d OpenLoad[d] heuristic saw only 0.875 total. All
// sizes are dyadic, so every comparison is exact.
func TestServerStrandedAccounting(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir(), Limits{})
	cfg := TenantConfig{Name: "frag", Dim: 2, Policy: "FirstFit", Seed: 1}
	mustStatus(t, http.StatusCreated, call(t, "POST", ts.URL+"/v1/tenants", cfg, nil), "create")

	var p1, p2 PlaceResult
	mustStatus(t, http.StatusOK, call(t, "POST", ts.URL+"/v1/tenants/frag/place",
		placeBody{Arrival: f(0), Departure: f(10), Size: []float64{0.875, 0.25}}, &p1), "place 1")
	mustStatus(t, http.StatusOK, call(t, "POST", ts.URL+"/v1/tenants/frag/place",
		placeBody{Arrival: f(0), Departure: f(10), Size: []float64{0.25, 0.875}}, &p2), "place 2")
	if p1.Bin == p2.Bin {
		t.Fatalf("items share bin %d; the scenario needs mirrored bins", p1.Bin)
	}

	var st TenantStatus
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/v1/tenants/frag", nil, &st), "status")
	if st.OpenBins != 2 {
		t.Fatalf("open bins %d, want 2", st.OpenBins)
	}
	want := []float64{0.625, 0.625}
	if len(st.StrandedPerDim) != 2 || st.StrandedPerDim[0] != want[0] || st.StrandedPerDim[1] != want[1] {
		t.Errorf("stranded per dim %v, want %v", st.StrandedPerDim, want)
	}
	if st.StrandedCapacity != 1.25 {
		t.Errorf("stranded capacity %v, want 1.25", st.StrandedCapacity)
	}
}

// TestServerStrandedChurnConsistent drives a tenant through bin open/close
// churn and a torn-tail crash recovery, then pins every /status fragmentation
// field — open_load, stranded_per_dim and stranded_capacity — against an
// independent metrics.FragOf recompute on a replica engine fed the same
// items. stranded_capacity must also equal the sum of stranded_per_dim off
// the same snapshot, so the two cannot drift apart under churn. All sizes
// are dyadic, so every comparison is exact.
func TestServerStrandedChurnConsistent(t *testing.T) {
	root := t.TempDir()
	reg := metrics.NewRegistry()
	store, err := OpenStore(root, Limits{}, reg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	url := newLocalServer(t, New(store, reg)) // store "crashes" below; no Cleanup-close
	cfg := TenantConfig{Name: "churn", Dim: 2, Policy: "FirstFit", Seed: 1, CheckpointEvery: 4}
	mustStatus(t, http.StatusCreated, call(t, "POST", url+"/v1/tenants", cfg, nil), "create")

	// Two long-lived mirror-imbalanced items anchor two bins; two short-lived
	// ones open and churn a third bin that closes again at the advance.
	pre := []streamItem{
		{arrival: 0, departure: 100, size: []float64{0.875, 0.25}},
		{arrival: 1, departure: 100, size: []float64{0.25, 0.875}},
		{arrival: 2, departure: 5, size: []float64{0.125, 0.0625}},
		{arrival: 3, departure: 6, size: []float64{0.5, 0.5}},
	}
	for i, it := range pre {
		mustStatus(t, http.StatusOK, call(t, "POST", url+"/v1/tenants/churn/place",
			placeBody{Arrival: f(it.arrival), Departure: f(it.departure), Size: it.size}, nil),
			fmt.Sprintf("place %d", i))
	}
	mustStatus(t, http.StatusOK, call(t, "POST", url+"/v1/tenants/churn/advance",
		advanceBody{To: 10}, nil), "advance past the departures")

	// Crash without a drain, tear the op log's tail, and recover.
	fh, err := os.OpenFile(filepath.Join(root, "churn", opsFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open %s: %v", opsFile, err)
	}
	if _, err := fh.Write([]byte{0x13, 0x37, 0x00}); err != nil {
		t.Fatalf("tear %s: %v", opsFile, err)
	}
	fh.Close()
	reg2 := metrics.NewRegistry()
	store2, err := OpenStore(root, Limits{}, reg2)
	if err != nil {
		t.Fatalf("reopening store: %v", err)
	}
	t.Cleanup(store2.Close)
	url2 := newLocalServer(t, New(store2, reg2))

	post := streamItem{arrival: 12, departure: 50, size: []float64{0.0625, 0.0625}}
	mustStatus(t, http.StatusOK, call(t, "POST", url2+"/v1/tenants/churn/place",
		placeBody{Arrival: f(post.arrival), Departure: f(post.departure), Size: post.size}, nil),
		"place after recovery")
	mustStatus(t, http.StatusOK, call(t, "POST", url2+"/v1/tenants/churn/advance",
		advanceBody{To: 20}, nil), "final advance")

	var st TenantStatus
	mustStatus(t, http.StatusOK, call(t, "GET", url2+"/v1/tenants/churn", nil, &st), "status")

	// Independent recompute: the same items through a fresh engine stepped to
	// the watermark, fragmentation read through metrics.FragOf.
	l := item.NewList(cfg.Dim)
	for _, it := range append(append([]streamItem(nil), pre...), post) {
		l.Add(it.arrival, it.departure, vector.Vector(it.size))
	}
	p, err := core.NewPolicy(cfg.Policy, cfg.Seed)
	if err != nil {
		t.Fatalf("NewPolicy: %v", err)
	}
	e, err := core.NewEngine(l, p)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	for {
		tt, ok := e.PeekTime()
		if !ok || tt > st.Watermark {
			break
		}
		if _, ok, err := e.Step(); err != nil || !ok {
			t.Fatalf("replica step: ok=%v err=%v", ok, err)
		}
	}
	fs := metrics.FragOf(cfg.Dim, e.AppendOpenBins(nil))

	if fs.OpenBins != 2 || fs.Stranded[0] != 0.625 || fs.Stranded[1] != 0.625 {
		t.Fatalf("replica recompute off-script: %+v (want 2 bins stranding 0.625 each dim)", fs)
	}
	if st.OpenBins != fs.OpenBins {
		t.Errorf("open bins %d, FragOf recompute says %d", st.OpenBins, fs.OpenBins)
	}
	var cap_ float64
	for d := 0; d < cfg.Dim; d++ {
		if st.OpenLoad[d] != fs.Load[d] {
			t.Errorf("open load dim %d = %v, FragOf recompute says %v", d, st.OpenLoad[d], fs.Load[d])
		}
		if st.StrandedPerDim[d] != fs.Stranded[d] {
			t.Errorf("stranded dim %d = %v, FragOf recompute says %v", d, st.StrandedPerDim[d], fs.Stranded[d])
		}
		cap_ += fs.Stranded[d]
	}
	if st.StrandedCapacity != cap_ {
		t.Errorf("stranded capacity %v, FragOf recompute says %v", st.StrandedCapacity, cap_)
	}
}

func TestServerValidationErrors(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir(), Limits{})
	mustStatus(t, http.StatusCreated, call(t, "POST", ts.URL+"/v1/tenants",
		TenantConfig{Name: "v", Dim: 2, Policy: "bf", Seed: 1}, nil), "create")

	cases := []struct {
		what   string
		status int
		method string
		path   string
		body   any
	}{
		{"bad tenant name", http.StatusBadRequest, "POST", "/v1/tenants", TenantConfig{Name: "no/slashes", Dim: 1, Policy: "ff"}},
		{"bad dim", http.StatusBadRequest, "POST", "/v1/tenants", TenantConfig{Name: "x", Dim: 0, Policy: "ff"}},
		{"bad policy", http.StatusBadRequest, "POST", "/v1/tenants", TenantConfig{Name: "x", Dim: 1, Policy: "nope"}},
		{"unknown field", http.StatusBadRequest, "POST", "/v1/tenants", map[string]any{"name": "x", "dim": 1, "policy": "ff", "bogus": 1}},
		{"unknown tenant place", http.StatusNotFound, "POST", "/v1/tenants/ghost/place", placeBody{Departure: f(1), Size: []float64{0.1, 0.1}}},
		{"wrong dimension", http.StatusBadRequest, "POST", "/v1/tenants/v/place", placeBody{Departure: f(1), Size: []float64{0.1}}},
		{"oversized item", http.StatusBadRequest, "POST", "/v1/tenants/v/place", placeBody{Departure: f(1), Size: []float64{1.5, 0.1}}},
		{"departure and duration", http.StatusBadRequest, "POST", "/v1/tenants/v/place", placeBody{Departure: f(1), Duration: f(1), Size: []float64{0.1, 0.1}}},
		{"no departure", http.StatusBadRequest, "POST", "/v1/tenants/v/place", placeBody{Size: []float64{0.1, 0.1}}},
		{"bad from", http.StatusBadRequest, "GET", "/v1/tenants/v/placements?from=-1", nil},
	}
	for _, c := range cases {
		var e errorBody
		if got := call(t, c.method, ts.URL+c.path, c.body, &e); got != c.status {
			t.Errorf("%s: status %d, want %d", c.what, got, c.status)
		}
		if e.Error == "" || e.Code == "" {
			t.Errorf("%s: unstructured error body %+v", c.what, e)
		}
	}

	// Time-regression is a conflict, not a validation failure.
	mustStatus(t, http.StatusOK, call(t, "POST", ts.URL+"/v1/tenants/v/place",
		placeBody{Arrival: f(10), Departure: f(11), Size: []float64{0.1, 0.1}}, nil), "place at 10")
	var e errorBody
	mustStatus(t, http.StatusConflict, call(t, "POST", ts.URL+"/v1/tenants/v/place",
		placeBody{Arrival: f(9), Departure: f(11), Size: []float64{0.1, 0.1}}, &e), "stale place")
	if e.Code != "stale_arrival" {
		t.Fatalf("stale place code %q", e.Code)
	}
	mustStatus(t, http.StatusConflict, call(t, "POST", ts.URL+"/v1/tenants/v/advance",
		advanceBody{To: 5}, &e), "stale advance")
	if e.Code != "stale_advance" {
		t.Fatalf("stale advance code %q", e.Code)
	}
}

// TestServerRefusesTrailingData: a request body is one JSON value. Data
// after it, even another well-formed value, is refused as 400 bad_json and
// changes nothing; white space after it is fine.
func TestServerRefusesTrailingData(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir(), Limits{})
	mustStatus(t, http.StatusCreated, call(t, "POST", ts.URL+"/v1/tenants",
		TenantConfig{Name: "a", Dim: 1, Policy: "FirstFit"}, nil), "create")
	post := func(path, body string) (int, errorBody) {
		t.Helper()
		resp, err := testClient.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var e errorBody
		if resp.StatusCode >= 400 {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("POST %s: decoding error body: %v", path, err)
			}
		}
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, e
	}
	for _, c := range []struct{ what, path, body string }{
		{"place then an object", "/v1/tenants/a/place", `{"arrival":1,"departure":2,"size":[0.5]} {"bogus":true}`},
		{"place then an empty object", "/v1/tenants/a/place", `{"arrival":1,"departure":2,"size":[0.5]}{}`},
		{"place then garbage", "/v1/tenants/a/place", `{"arrival":1,"departure":2,"size":[0.5]} x`},
		{"advance then another", "/v1/tenants/a/advance", `{"to":3} {"to":4}`},
		{"create then an array", "/v1/tenants", `{"name":"b","dim":1,"policy":"FirstFit"} []`},
	} {
		if code, e := post(c.path, c.body); code != http.StatusBadRequest || e.Code != "bad_json" {
			t.Errorf("%s: status %d, code %q; want 400 bad_json", c.what, code, e.Code)
		}
	}
	var st TenantStatus
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/v1/tenants/a", nil, &st), "status")
	if st.Watermark != 0 || st.Placements != 0 {
		t.Fatalf("refused requests moved the tenant: watermark %g, %d placements", st.Watermark, st.Placements)
	}
	mustStatus(t, http.StatusNotFound, call(t, "GET", ts.URL+"/v1/tenants/b", nil, nil), "refused tenant")

	for _, c := range []struct {
		what, path, body string
		status           int
	}{
		{"place then white space", "/v1/tenants/a/place", "{\"arrival\":1,\"departure\":2,\"size\":[0.5]} \n\t ", http.StatusOK},
		{"advance then a newline", "/v1/tenants/a/advance", "{\"to\":3}\n", http.StatusOK},
		{"create then CRLF", "/v1/tenants", "{\"name\":\"b\",\"dim\":1,\"policy\":\"FirstFit\"}\r\n", http.StatusCreated},
	} {
		if code, e := post(c.path, c.body); code != c.status {
			t.Errorf("%s: status %d (%+v), want %d", c.what, code, e, c.status)
		}
	}
}

// TestCallKeepsOneConnectionPerClient: call reads every response to its end
// and sends through a client whose pool keeps an idle connection for each of
// the throughput benchmark's concurrent clients, so a client reuses one
// connection for all its calls, whether it decodes the responses or not, and
// the benchmark times requests, not TCP handshakes. The server counts the
// connections it accepts. Every client's first call waits at the server
// until all clients have one in flight, so each client opens its own
// connection then.
func TestCallKeepsOneConnectionPerClient(t *testing.T) {
	const clients, calls = 8, 20
	reg := metrics.NewRegistry()
	store, err := OpenStore(t.TempDir(), Limits{}, reg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer store.Close()
	srv := New(store, reg)
	var arrived sync.WaitGroup
	arrived.Add(clients)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/all-connected" {
			arrived.Done()
			arrived.Wait()
			w.WriteHeader(http.StatusNoContent)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	for c := 0; c < clients; c++ {
		mustStatus(t, http.StatusCreated, call(t, "POST", ts.URL+"/v1/tenants",
			TenantConfig{Name: fmt.Sprintf("c%d", c), Dim: 2, Policy: "FirstFit"}, nil), "create")
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if code := call(t, "GET", ts.URL+"/all-connected", nil, nil); code != http.StatusNoContent {
				t.Errorf("client %d: first call: status %d", c, code)
				return
			}
			base := fmt.Sprintf("%s/v1/tenants/c%d", ts.URL, c)
			for i := 0; i < calls; i++ {
				body := placeBody{Arrival: f(float64(i)), Duration: f(2), Size: []float64{0.1, 0.1}}
				if code := call(t, "POST", base+"/place", body, nil); code != http.StatusOK {
					t.Errorf("client %d: place %d: status %d", c, i, code)
					return
				}
				var st TenantStatus
				if code := call(t, "GET", base, nil, &st); code != http.StatusOK || st.Placements != i+1 {
					t.Errorf("client %d: status after place %d: status %d, %d placements", c, i, code, st.Placements)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if n := conns.Load(); n > clients {
		t.Errorf("%d clients making %d calls each opened %d connections, want at most one each", clients, 2*calls+1, n)
	}
}

func TestServerMatchesSingleThreadedEngine(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir(), Limits{})
	for _, policy := range []string{"FirstFit", "BestFit", "MoveToFront", "RandomFit"} {
		cfg := TenantConfig{Name: strings.ToLower(policy), Dim: 3, Policy: policy, Seed: 42, CheckpointEvery: 64}
		mustStatus(t, http.StatusCreated, call(t, "POST", ts.URL+"/v1/tenants", cfg, nil), "create")
		items := stream(3, 120, 7)
		for i, it := range items {
			var pr PlaceResult
			mustStatus(t, http.StatusOK, call(t, "POST", ts.URL+"/v1/tenants/"+cfg.Name+"/place",
				placeBody{Arrival: f(it.arrival), Departure: f(it.departure), Size: it.size}, &pr),
				fmt.Sprintf("place %d", i))
			if pr.Item != i {
				t.Fatalf("%s: item %d acked as %d", policy, i, pr.Item)
			}
		}
		var got PlacementsResult
		mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/v1/tenants/"+cfg.Name+"/placements", nil, &got), "placements")
		want := referencePlacements(t, cfg, items)
		if len(got.Placements) != len(want) {
			t.Fatalf("%s: %d placements, want %d", policy, len(got.Placements), len(want))
		}
		for i := range want {
			if got.Placements[i] != want[i] {
				t.Fatalf("%s: placement %d = %+v, want %+v", policy, i, got.Placements[i], want[i])
			}
		}
	}
}

func TestServerHealthReadyMetrics(t *testing.T) {
	ts, store := newTestServer(t, t.TempDir(), Limits{})
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/healthz", nil, nil), "healthz")
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/readyz", nil, nil), "readyz")

	mustStatus(t, http.StatusCreated, call(t, "POST", ts.URL+"/v1/tenants",
		TenantConfig{Name: "m", Dim: 1, Policy: "ff"}, nil), "create")
	mustStatus(t, http.StatusOK, call(t, "POST", ts.URL+"/v1/tenants/m/place",
		placeBody{Departure: f(1), Size: []float64{0.5}}, nil), "place")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"dvbp_server_requests_total",
		"dvbp_server_request_seconds_bucket",
		"dvbp_server_items_total 1",
		"dvbp_server_tenants 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	var snap metrics.Snapshot
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/metrics?format=json", nil, &snap), "metrics json")
	if _, ok := snap.Find("dvbp_server_request_seconds"); !ok {
		t.Fatalf("JSON snapshot missing latency histogram")
	}
	_ = store
}

func TestServerBackpressureBoundedQueue(t *testing.T) {
	// White-box: a tenant whose worker never runs fills its bounded queue
	// and then answers errBusy — nothing blocks, nothing grows.
	reg := metrics.NewRegistry()
	m := newStoreMetrics(reg)
	tn := newTenant(TenantConfig{Name: "q", Dim: 1, Policy: "ff"}, t.TempDir(), Limits{QueueDepth: 4}.withDefaults(), m)
	tn.limits.QueueDepth = 4
	tn.ch = make(chan *request, 4)
	for i := 0; i < 4; i++ {
		if aerr := tn.enqueue(&request{kind: reqStats, reply: make(chan response, 1)}); aerr != nil {
			t.Fatalf("enqueue %d: %v", i, aerr)
		}
	}
	aerr := tn.enqueue(&request{kind: reqStats, reply: make(chan response, 1)})
	if aerr == nil || aerr.Status != http.StatusTooManyRequests {
		t.Fatalf("5th enqueue: %v, want 429", aerr)
	}
	if m.backpressure.Value() != 1 {
		t.Fatalf("backpressure counter %d, want 1", m.backpressure.Value())
	}
	// Closed intake answers draining, never panics.
	tn.mu.Lock()
	tn.closed = true
	tn.mu.Unlock()
	if aerr := tn.enqueue(&request{kind: reqStats}); aerr == nil || aerr.Status != http.StatusServiceUnavailable {
		t.Fatalf("enqueue after close: %v, want 503", aerr)
	}
}

func TestServerDeadlineExpiredInQueue(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir(), Limits{Deadline: time.Nanosecond})
	mustStatus(t, http.StatusCreated, call(t, "POST", ts.URL+"/v1/tenants",
		TenantConfig{Name: "d", Dim: 1, Policy: "ff"}, nil), "create")
	var e errorBody
	got := call(t, "POST", ts.URL+"/v1/tenants/d/place",
		placeBody{Departure: f(1), Size: []float64{0.5}}, &e)
	if got != http.StatusServiceUnavailable || e.Code != "deadline" {
		t.Fatalf("place with 1ns deadline: status %d code %q, want 503 deadline", got, e.Code)
	}
}

func TestServerDrainRefusesNewWork(t *testing.T) {
	reg := metrics.NewRegistry()
	store, err := OpenStore(t.TempDir(), Limits{}, reg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	srv := New(store, reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer store.Close()

	mustStatus(t, http.StatusCreated, call(t, "POST", ts.URL+"/v1/tenants",
		TenantConfig{Name: "g", Dim: 1, Policy: "ff"}, nil), "create")
	mustStatus(t, http.StatusOK, call(t, "POST", ts.URL+"/v1/tenants/g/place",
		placeBody{Departure: f(1), Size: []float64{0.5}}, nil), "place")

	srv.Drain()
	mustStatus(t, http.StatusServiceUnavailable, call(t, "GET", ts.URL+"/readyz", nil, nil), "readyz while draining")
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/healthz", nil, nil), "healthz while draining")
	mustStatus(t, http.StatusServiceUnavailable, call(t, "POST", ts.URL+"/v1/tenants/g/place",
		placeBody{Departure: f(2), Size: []float64{0.5}}, nil), "place while draining")
	mustStatus(t, http.StatusServiceUnavailable, call(t, "POST", ts.URL+"/v1/tenants",
		TenantConfig{Name: "h", Dim: 1, Policy: "ff"}, nil), "create while draining")
	// Reads stay available for the drain window.
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/v1/tenants/g", nil, nil), "status while draining")
}
