package server

import (
	"net/http"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dvbp/internal/metrics"
	"dvbp/internal/vfs"
)

// metricValue reads one counter/gauge from the server's JSON metrics
// snapshot, failing the test when the metric is not exported.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	var snap metrics.Snapshot
	mustStatus(t, http.StatusOK, call(t, "GET", base+"/metrics?format=json", nil, &snap), "metrics json")
	m, ok := snap.Find(name)
	if !ok {
		t.Fatalf("metric %s not exported", name)
	}
	return m.Value
}

// TestServerDegradedModeSickDisk drives a tenant across a full disk-sickness
// arc: healthy placements, a persistent-EIO window (exhausting the transient
// retries), a read-only degraded plateau where reads still serve and /readyz
// flags the tenant, an ENOSPC window (no retries, immediate degrade), and
// recovery — after which every acknowledged placement must match the
// single-threaded reference and the tenant must NOT be poisoned.
func TestServerDegradedModeSickDisk(t *testing.T) {
	inj := vfs.NewInjector(vfs.OS{})
	ts, _ := newTestServer(t, t.TempDir(), Limits{
		FS:           inj,
		RetryBackoff: 50 * time.Microsecond,
	})
	cfg := TenantConfig{Name: "sick", Dim: 2, Policy: "FirstFit", Seed: 3, CheckpointEvery: 8}
	mustStatus(t, http.StatusCreated, call(t, "POST", ts.URL+"/v1/tenants", cfg, nil), "create")

	items := stream(2, 40, 5)
	acked := items[:0:0]
	place := func(it streamItem) (int, errorBody) {
		var e errorBody
		code := call(t, "POST", ts.URL+"/v1/tenants/sick/place",
			placeBody{Arrival: f(it.arrival), Departure: f(it.departure), Size: it.size}, &e)
		if code == http.StatusOK {
			acked = append(acked, it)
		}
		return code, e
	}

	// Healthy phase: placements land, readiness is green.
	for _, it := range items[:8] {
		if code, e := place(it); code != http.StatusOK {
			t.Fatalf("healthy place: status %d code %q", code, e.Code)
		}
	}
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/readyz", nil, nil), "readyz healthy")

	// Persistent EIO: the worker retries the transient error, gives up, rolls
	// the op log back, and degrades instead of poisoning the tenant.
	inj.SetSticky(syscall.EIO, vfs.FaultSync)
	if code, e := place(items[8]); code != http.StatusServiceUnavailable || e.Code != "degraded" {
		t.Fatalf("place on sick disk: status %d code %q, want 503 degraded", code, e.Code)
	}
	if got := metricValue(t, ts.URL, "dvbp_server_io_retries_total"); got < 3 {
		t.Fatalf("io_retries_total %v after exhausting retries, want >= 3", got)
	}
	if got := metricValue(t, ts.URL, "dvbp_server_degraded_tenants"); got != 1 {
		t.Fatalf("degraded_tenants %v, want 1", got)
	}

	// Degraded is read-only, not down: status and placements still serve,
	// mutations refuse, readiness names the tenant.
	var st TenantStatus
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/v1/tenants/sick", nil, &st), "status while degraded")
	if !st.Degraded {
		t.Fatalf("status while degraded: %+v", st)
	}
	var pl PlacementsResult
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/v1/tenants/sick/placements", nil, &pl), "placements while degraded")
	if pl.Total != len(acked) {
		t.Fatalf("placements while degraded: total %d, want %d acked", pl.Total, len(acked))
	}
	var ready struct {
		Status   string   `json:"status"`
		Degraded []string `json:"degraded"`
	}
	if code := call(t, "GET", ts.URL+"/readyz", nil, &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while degraded: status %d", code)
	}
	if ready.Status != "degraded" || len(ready.Degraded) != 1 || ready.Degraded[0] != "sick" {
		t.Fatalf("readyz body %+v", ready)
	}
	if code, e := place(items[9]); code != http.StatusServiceUnavailable || e.Code != "degraded" {
		t.Fatalf("second place while sick: status %d code %q", code, e.Code)
	}

	// Heal: the next mutation makes the worker probe, resume, and serve.
	inj.ClearSticky()
	if code, e := place(items[10]); code != http.StatusOK {
		t.Fatalf("place after heal: status %d code %q", code, e.Code)
	}
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/readyz", nil, nil), "readyz after heal")
	if got := metricValue(t, ts.URL, "dvbp_server_degraded_tenants"); got != 0 {
		t.Fatalf("degraded_tenants %v after heal, want 0", got)
	}

	// ENOSPC is not retried — a full disk degrades on the first refusal.
	retriesBefore := metricValue(t, ts.URL, "dvbp_server_io_retries_total")
	inj.SetSticky(syscall.ENOSPC, vfs.FaultSync)
	if code, e := place(items[11]); code != http.StatusServiceUnavailable || e.Code != "degraded" {
		t.Fatalf("place on full disk: status %d code %q", code, e.Code)
	}
	inj.ClearSticky()
	if got := metricValue(t, ts.URL, "dvbp_server_io_retries_total"); got != retriesBefore {
		t.Fatalf("ENOSPC was retried: io_retries_total %v -> %v", retriesBefore, got)
	}

	// Full recovery: drive the rest of the stream, with advances mixed in.
	for i, it := range items[11:] {
		if code, e := place(it); code != http.StatusOK {
			t.Fatalf("place %d after second heal: status %d code %q", i, code, e.Code)
		}
		if i%4 == 3 {
			mustStatus(t, http.StatusOK, call(t, "POST", ts.URL+"/v1/tenants/sick/advance",
				advanceBody{To: it.arrival}, nil), "advance")
		}
	}

	// Every acknowledged placement — and only those — must match the
	// single-threaded reference over the acked stream; refused requests left
	// no trace.
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/v1/tenants/sick/placements", nil, &pl), "final placements")
	want := referencePlacements(t, cfg, acked)
	if len(pl.Placements) != len(want) {
		t.Fatalf("%d final placements, want %d", len(pl.Placements), len(want))
	}
	for i := range want {
		if pl.Placements[i] != want[i] {
			t.Fatalf("placement %d = %+v, want %+v", i, pl.Placements[i], want[i])
		}
	}
	// Fresh struct: Degraded is omitempty, so decoding into the struct used
	// during the degraded window would keep the stale true.
	var healthy TenantStatus
	mustStatus(t, http.StatusOK, call(t, "GET", ts.URL+"/v1/tenants/sick", nil, &healthy), "final status")
	if healthy.Degraded {
		t.Fatalf("tenant still degraded after recovery: %+v", healthy)
	}

	// The sickness window must not have poisoned compaction either: with
	// CheckpointEvery set, the WAL kept compacting.
	if got := metricValue(t, ts.URL, "dvbp_server_compactions_total"); got < 1 {
		t.Fatalf("compactions_total %v, want >= 1", got)
	}
	if got := metricValue(t, ts.URL, "dvbp_server_compaction_reclaimed_bytes_total"); got <= 0 {
		t.Fatalf("compaction_reclaimed_bytes_total %v, want > 0", got)
	}
}

// TestServerDegradedRecoversAcrossRestart: a tenant degraded mid-run, with
// acknowledged-but-unacked-to-WAL state rolled back, must recover on a fresh
// store with every acknowledged placement intact — the two-barrier protocol's
// contract under a sick disk plus a crash.
func TestServerDegradedRecoversAcrossRestart(t *testing.T) {
	root := t.TempDir()
	inj := vfs.NewInjector(vfs.OS{})
	limits := Limits{FS: inj, RetryBackoff: 50 * time.Microsecond}

	reg := metrics.NewRegistry()
	store, err := OpenStore(root, limits, reg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	base := newLocalServer(t, New(store, reg))
	cfg := TenantConfig{Name: "ph", Dim: 1, Policy: "BestFit", Seed: 9, CheckpointEvery: 4}
	mustStatus(t, http.StatusCreated, call(t, "POST", base+"/v1/tenants", cfg, nil), "create")

	items := stream(1, 20, 2)
	acked := items[:0:0]
	for i, it := range items {
		if i == 12 {
			inj.SetSticky(syscall.EIO, vfs.FaultSync)
		}
		if i == 15 {
			inj.ClearSticky()
		}
		var e errorBody
		code := call(t, "POST", base+"/v1/tenants/ph/place",
			placeBody{Arrival: f(it.arrival), Departure: f(it.departure), Size: it.size}, &e)
		switch code {
		case http.StatusOK:
			acked = append(acked, it)
		case http.StatusServiceUnavailable:
			if e.Code != "degraded" {
				t.Fatalf("place %d: 503 with code %q", i, e.Code)
			}
		default:
			t.Fatalf("place %d: status %d code %q", i, code, e.Code)
		}
	}
	// Crash: no drain, no close — the store is abandoned and its directory
	// reopened cold, exactly like a process that died degraded.
	_ = store

	reg2 := metrics.NewRegistry()
	store2, err := OpenStore(root, Limits{}, reg2)
	if err != nil {
		t.Fatalf("reopen after degraded run: %v", err)
	}
	defer store2.Close()
	base2 := newLocalServer(t, New(store2, reg2))

	var pl PlacementsResult
	mustStatus(t, http.StatusOK, call(t, "GET", base2+"/v1/tenants/ph/placements", nil, &pl), "placements after restart")
	want := referencePlacements(t, cfg, acked)
	if len(pl.Placements) != len(want) {
		t.Fatalf("recovered %d placements, want %d acked", len(pl.Placements), len(want))
	}
	for i := range want {
		if pl.Placements[i] != want[i] {
			t.Fatalf("recovered placement %d = %+v, want %+v", i, pl.Placements[i], want[i])
		}
	}
}

// sickAfterWALSwap holds one kind of disk operation sick from the moment the
// first compaction's rename lands on a tenant's WAL until the test heals it.
type sickAfterWALSwap struct {
	*vfs.Injector
	kind vfs.FaultKind
	err  error
	sick atomic.Bool
}

func (s *sickAfterWALSwap) Rename(oldpath, newpath string) error {
	err := s.Injector.Rename(oldpath, newpath)
	if err == nil && filepath.Base(newpath) == "wal.dvbp" && s.sick.CompareAndSwap(false, true) {
		s.SetSticky(s.err, s.kind)
	}
	return err
}

// TestServerDegradedNotPoisonedAtWALSwap pins the window between a WAL
// compaction's rename and the tenant's next WAL barrier. The disk refuses
// the directory sync that makes the rename durable, the open of the new
// WAL, or its fsync, until the refused request has been answered. Each
// fault must degrade the tenant (one 503), the next request's probe must
// resume it, and no request may answer 500. Every acknowledged placement
// must then be served identically after a graceful restart and after a
// power loss. The listing may hold more than the acks: the refused item
// passed the op-log barrier, so it stays placed without an ack.
func TestServerDegradedNotPoisonedAtWALSwap(t *testing.T) {
	cfg := TenantConfig{Name: "swap", Dim: 2, Policy: "FirstFit", Seed: 5, CheckpointEvery: 4}
	items := stream(2, 40, 3)
	cases := []struct {
		name  string
		kind  vfs.FaultKind
		errno error
	}{
		{"syncdir-eio", vfs.FaultSyncDir, syscall.EIO},
		{"open-eio", vfs.FaultOpen, syscall.EIO},
		{"fsync-enospc", vfs.FaultSync, syscall.ENOSPC},
	}
	for _, tc := range cases {
		for _, restart := range []string{"graceful", "power-loss"} {
			t.Run(tc.name+"/"+restart, func(t *testing.T) {
				m := vfs.NewMem()
				fsys := &sickAfterWALSwap{Injector: vfs.NewInjector(m), kind: tc.kind, err: tc.errno}
				reg := metrics.NewRegistry()
				store, err := OpenStore("data", Limits{FS: fsys, RetryBackoff: 50 * time.Microsecond}, reg)
				if err != nil {
					t.Fatalf("OpenStore: %v", err)
				}
				url := newLocalServer(t, New(store, reg))
				mustStatus(t, http.StatusCreated, call(t, "POST", url+"/v1/tenants", cfg, nil), "create")

				var acks []PlaceResult
				window, refused := 0, 0 // status answered while the disk was sick; 503 count
				for i, it := range items {
					var resp struct {
						PlaceResult
						errorBody
					}
					code := call(t, "POST", url+"/v1/tenants/swap/place",
						placeBody{Arrival: f(it.arrival), Departure: f(it.departure), Size: it.size}, &resp)
					switch {
					case code == http.StatusOK:
						acks = append(acks, resp.PlaceResult)
					case code == http.StatusServiceUnavailable && resp.Code == "degraded":
						refused++
					default:
						t.Fatalf("place %d: status %d code %q: %s", i, code, resp.Code, resp.Error)
					}
					if window == 0 && fsys.sick.Load() {
						window = code
						fsys.ClearSticky()
					}
				}
				if window != http.StatusServiceUnavailable || refused != 1 {
					t.Fatalf("the sick window answered %d and %d requests were refused; want one 503", window, refused)
				}
				if got := metricValue(t, url, "dvbp_server_degraded_tenants"); got != 0 {
					t.Fatalf("degraded_tenants %v after the probe, want 0", got)
				}
				if got := metricValue(t, url, "dvbp_server_compactions_total"); got < 2 {
					t.Fatalf("compactions_total %v, want compactions after the healed one too", got)
				}

				if restart == "power-loss" {
					m.CrashNow(vfs.CrashLost)
				}
				store.Close()
				m.Restart()
				reg2 := metrics.NewRegistry()
				store2, err := OpenStore("data", Limits{FS: m}, reg2)
				if err != nil {
					t.Fatalf("reopening: %v", err)
				}
				defer store2.Close()
				var pl PlacementsResult
				mustStatus(t, http.StatusOK, call(t, "GET", newLocalServer(t, New(store2, reg2))+"/v1/tenants/swap/placements", nil, &pl), "placements")
				listed := make(map[int]PlacementRecord, len(pl.Placements))
				for _, p := range pl.Placements {
					listed[p.Item] = p
				}
				for _, a := range acks {
					want := PlacementRecord{Item: a.Item, Bin: a.Bin, Time: a.Time}
					if got, ok := listed[a.Item]; !ok || got != want {
						t.Fatalf("acknowledged placement %+v listed as %+v (present %v) among %d", want, got, ok, len(pl.Placements))
					}
				}
			})
		}
	}
}
