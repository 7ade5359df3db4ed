package server

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"dvbp/internal/metrics"
)

// TestStoreRecoverAcknowledgedPlacements is the package-level crash story:
// acknowledged placements survive a crash byte-identically, even when the
// crash tears the files mid-append. It feeds several tenants, abandons the
// store without a graceful drain, appends garbage to every WAL and op log
// (the torn tail a SIGKILL mid-write leaves), reopens the store, and then
// requires every acknowledged placement back, identical, with the watermark
// intact and the tenants accepting new work. The process-level version — a
// literal SIGKILL under HTTP load — lives in cmd/dvbpserver.
func TestStoreRecoverAcknowledgedPlacements(t *testing.T) {
	root := t.TempDir()
	reg := metrics.NewRegistry()
	store, err := OpenStore(root, Limits{}, reg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	// No Cleanup-close: this store is "crashed" below.
	srv := New(store, reg)

	type ack struct {
		place PlaceResult
	}
	tenants := []TenantConfig{
		{Name: "alpha", Dim: 2, Policy: "FirstFit", Seed: 1, CheckpointEvery: 16},
		{Name: "beta", Dim: 2, Policy: "MoveToFront", Seed: 2}, // no snapshots: full replay
		{Name: "gamma", Dim: 2, Policy: "RandomFit", Seed: 3, CheckpointEvery: 8},
	}
	acked := make(map[string][]ack)
	watermarks := make(map[string]float64)
	hts := newLocalServer(t, srv)
	for _, cfg := range tenants {
		mustStatus(t, http.StatusCreated, call(t, "POST", hts+"/v1/tenants", cfg, nil), "create")
		items := stream(2, 70, int(cfg.Seed)*11)
		for _, it := range items {
			var pr PlaceResult
			mustStatus(t, http.StatusOK, call(t, "POST", hts+"/v1/tenants/"+cfg.Name+"/place",
				placeBody{Arrival: f(it.arrival), Departure: f(it.departure), Size: it.size}, &pr), "place")
			acked[cfg.Name] = append(acked[cfg.Name], ack{place: pr})
		}
		var adv AdvanceResult
		mustStatus(t, http.StatusOK, call(t, "POST", hts+"/v1/tenants/"+cfg.Name+"/advance",
			advanceBody{To: 40}, &adv), "advance")
		watermarks[cfg.Name] = 40
	}

	// Crash: no drain, no close. Every acknowledged response above was
	// preceded by its fsync barriers, so the durable state covers them all.
	// Then tear every persist file the way an interrupted append would.
	for _, cfg := range tenants {
		for _, name := range []string{"wal.dvbp", "ops.dvbp"} {
			path := filepath.Join(root, cfg.Name, name)
			fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatalf("open %s: %v", path, err)
			}
			if _, err := fh.Write([]byte{0x13, 0x37, 0x00}); err != nil {
				t.Fatalf("tear %s: %v", path, err)
			}
			fh.Close()
		}
	}

	// Restart: a fresh registry and store over the same directory.
	reg2 := metrics.NewRegistry()
	store2, err := OpenStore(root, Limits{}, reg2)
	if err != nil {
		t.Fatalf("reopening store: %v", err)
	}
	srv2 := New(store2, reg2)
	hts2 := newLocalServer(t, srv2)
	t.Cleanup(store2.Close)

	if got, _ := reg2.Snapshot().Find("dvbp_server_recovered_tenants_total"); got.Value != 3 {
		t.Fatalf("recovered %g tenants, want 3", got.Value)
	}
	if got, _ := reg2.Snapshot().Find("dvbp_server_recovery_corruptions_total"); got.Value == 0 {
		t.Fatalf("torn tails went unreported")
	}
	mustStatus(t, http.StatusOK, call(t, "GET", hts2+"/readyz", nil, nil), "readyz after recovery")

	for _, cfg := range tenants {
		var got PlacementsResult
		mustStatus(t, http.StatusOK, call(t, "GET", hts2+"/v1/tenants/"+cfg.Name+"/placements", nil, &got), "placements")
		want := acked[cfg.Name]
		if len(got.Placements) != len(want) {
			t.Fatalf("%s: %d placements after recovery, want %d", cfg.Name, len(got.Placements), len(want))
		}
		for i, a := range want {
			rec := PlacementRecord{Item: a.place.Item, Bin: a.place.Bin, Time: a.place.Time}
			if got.Placements[i] != rec {
				t.Fatalf("%s: placement %d = %+v, want acknowledged %+v", cfg.Name, i, got.Placements[i], rec)
			}
		}
		var st TenantStatus
		mustStatus(t, http.StatusOK, call(t, "GET", hts2+"/v1/tenants/"+cfg.Name, nil, &st), "status")
		if st.Watermark != watermarks[cfg.Name] {
			t.Fatalf("%s: watermark %g after recovery, want %g", cfg.Name, st.Watermark, watermarks[cfg.Name])
		}
		// The tenant keeps serving: a fresh placement past the watermark.
		var pr PlaceResult
		mustStatus(t, http.StatusOK, call(t, "POST", hts2+"/v1/tenants/"+cfg.Name+"/place",
			placeBody{Arrival: f(45), Departure: f(46), Size: []float64{0.5, 0.5}}, &pr), "place after recovery")
		if pr.Item != len(want) {
			t.Fatalf("%s: post-recovery item ID %d, want %d", cfg.Name, pr.Item, len(want))
		}
	}
}

// TestStoreRecoverRefusesForeignIdentity pins the fail-closed path: when a
// tenant's on-disk identity disagrees with the manifest (a copied directory,
// a hand-edited manifest), the store refuses to open rather than serve a
// tenant whose acknowledged history it cannot vouch for.
func TestStoreRecoverRefusesForeignIdentity(t *testing.T) {
	root := t.TempDir()
	reg := metrics.NewRegistry()
	store, err := OpenStore(root, Limits{}, reg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if _, aerr := store.Create(TenantConfig{Name: "a", Dim: 2, Policy: "ff", Seed: 1}); aerr != nil {
		t.Fatalf("Create: %v", aerr)
	}
	store.Close()

	// Rewrite the manifest to claim a different policy for the same data.
	manifest := filepath.Join(root, manifestFile)
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	edited := []byte(string(data[:0]) + `[{"name":"a","dim":2,"policy":"bf","seed":1}]`)
	if err := os.WriteFile(manifest, edited, 0o644); err != nil {
		t.Fatalf("write manifest: %v", err)
	}
	if _, err := OpenStore(root, Limits{}, metrics.NewRegistry()); err == nil {
		t.Fatalf("OpenStore accepted a manifest that disagrees with the op log")
	}
}
