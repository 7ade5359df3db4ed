package server

import (
	"net/http"
	"path/filepath"
	"strings"
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
	dataDir := t.TempDir()
	ts, _ := newTestServer(t, dataDir, Limits{
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

	// The sickness window must not have stopped checkpointing either: with
	// CheckpointEvery set, the tenant kept snapshotting, and each snapshot
	// pruned the ones before it.
	if snaps := snapshotFiles(t, vfs.OS{}, filepath.Join(dataDir, "sick")); len(snaps) != 1 {
		t.Fatalf("tenant directory holds snapshots %v, want exactly one", snaps)
	}
}

// snapshotFiles lists the snapshot files in a tenant directory.
func snapshotFiles(t *testing.T, fsys vfs.FS, dir string) []string {
	t.Helper()
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestServerDegradedRecoversAcrossRestart: a tenant degraded mid-run, with
// the refused batches rolled back, must recover on a fresh store with every
// acknowledged placement intact — the barrier's contract under a sick disk
// plus a crash.
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

// sickAfterSnapshotRename holds one kind of disk operation sick from the
// moment the first snapshot rename lands in a tenant's directory until the
// test heals it.
type sickAfterSnapshotRename struct {
	*vfs.Injector
	kind vfs.FaultKind
	err  error
	sick atomic.Bool
	at   map[vfs.FaultKind]int64 // operation counts when the fault went sticky
}

func (s *sickAfterSnapshotRename) Rename(oldpath, newpath string) error {
	err := s.Injector.Rename(oldpath, newpath)
	if err == nil && strings.HasPrefix(filepath.Base(newpath), "snap-") && s.sick.CompareAndSwap(false, true) {
		s.at = s.Counts()
		s.SetSticky(s.err, s.kind)
	}
	return err
}

// TestServerDegradedNotPoisonedAtSnapshotRename pins the window after a
// snapshot's rename. The disk refuses the directory sync that makes the
// rename durable, any reopen of a file, or every fsync, from the rename
// until a request is refused or eight more have been answered. The barrier
// is one write and one fsync on the open op log, so only the fsync fault
// reaches it: that case answers exactly one 503 and the next request's probe
// resumes the tenant. The directory-sync fault only skips checkpoints (the
// I/O weather counter shows it), and the serving path never reopens a file.
// No request may answer 500, and every acknowledged placement must be served
// identically after a graceful restart and after a power loss.
func TestServerDegradedNotPoisonedAtSnapshotRename(t *testing.T) {
	cfg := TenantConfig{Name: "swap", Dim: 2, Policy: "FirstFit", Seed: 5, CheckpointEvery: 4}
	items := stream(2, 40, 3)
	cases := []struct {
		name    string
		kind    vfs.FaultKind
		errno   error
		refused int
	}{
		{"syncdir-eio", vfs.FaultSyncDir, syscall.EIO, 0},
		{"open-eio", vfs.FaultOpen, syscall.EIO, 0},
		{"fsync-enospc", vfs.FaultSync, syscall.ENOSPC, 1},
	}
	for _, tc := range cases {
		for _, restart := range []string{"graceful", "power-loss"} {
			t.Run(tc.name+"/"+restart, func(t *testing.T) {
				m := vfs.NewMem()
				fsys := &sickAfterSnapshotRename{Injector: vfs.NewInjector(m), kind: tc.kind, err: tc.errno}
				reg := metrics.NewRegistry()
				store, err := OpenStore("data", Limits{FS: fsys, RetryBackoff: 50 * time.Microsecond}, reg)
				if err != nil {
					t.Fatalf("OpenStore: %v", err)
				}
				url := newLocalServer(t, New(store, reg))
				mustStatus(t, http.StatusCreated, call(t, "POST", url+"/v1/tenants", cfg, nil), "create")

				var acks []PlaceResult
				refused, window := 0, 0 // 503s; requests answered while the disk was sick
				var faulted map[vfs.FaultKind]int64
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
					if faulted == nil && fsys.sick.Load() {
						if window++; code != http.StatusOK || window == 8 {
							faulted = fsys.Counts()
							fsys.ClearSticky()
						}
					}
				}
				if faulted == nil || refused != tc.refused {
					t.Fatalf("sick window of %d requests refused %d; want %d", window, refused, tc.refused)
				}
				if got := metricValue(t, url, "dvbp_server_degraded_tenants"); got != 0 {
					t.Fatalf("degraded_tenants %v after the window, want 0", got)
				}
				switch tc.kind {
				case vfs.FaultSyncDir:
					if got := metricValue(t, url, "dvbp_server_io_retries_total"); got < 1 {
						t.Fatalf("io_retries_total %v: no checkpoint was skipped in the window", got)
					}
				case vfs.FaultOpen:
					if n := faulted[vfs.FaultOpen] - fsys.at[vfs.FaultOpen]; n != 0 {
						t.Fatalf("the serving path reopened %d files in the window", n)
					}
				}
				// Checkpointing resumed after the window and pruned behind it.
				if snaps := snapshotFiles(t, m, "data/swap"); len(snaps) != 1 {
					t.Fatalf("tenant directory holds snapshots %v, want exactly one", snaps)
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
