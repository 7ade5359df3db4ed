package server

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"dvbp/internal/metrics"
)

// TestStoreRecoverAcknowledgedPlacements is the package-level crash story:
// acknowledged placements survive a crash byte-identically, even when the
// crash tears the op log mid-append. It feeds several tenants, abandons the
// store without a graceful drain, appends garbage to every op log (the torn
// tail a SIGKILL mid-write leaves), reopens the store, and then
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
		{Name: "beta", Dim: 2, Policy: "MoveToFront", Seed: 2}, // no snapshots: re-stepped from the start
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
	// preceded by its fsync barrier, so the durable state covers them all.
	// Then tear every op log the way an interrupted append would.
	for _, cfg := range tenants {
		path := filepath.Join(root, cfg.Name, opsFile)
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		if _, err := fh.Write([]byte{0x13, 0x37, 0x00}); err != nil {
			t.Fatalf("tear %s: %v", path, err)
		}
		fh.Close()
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

// TestStoreOpensParentDataDir opens a data directory written before the op
// log became the only durable log (testdata/parent-store: two tenants, one
// past a WAL compaction, with the acknowledgements they got). Every recorded
// acknowledgement must be listed identically and every tenant must accept a
// new placement. The old snapshots carry no event digest, so recovery skips
// them and re-steps each tenant from its op log; the leftover wal.dvbp files
// are ignored and left as they are.
func TestStoreOpensParentDataDir(t *testing.T) {
	src := filepath.Join("testdata", "parent-store")
	var recorded struct {
		Places   []PlaceResult   `json:"places"`
		Advances []AdvanceResult `json:"advances"`
	}
	raw, err := os.ReadFile(filepath.Join(src, "acks.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	copyTree(t, filepath.Join(src, "data"), root)
	wals := map[string][]byte{}
	for _, name := range []string{"compacted", "walonly"} {
		b, err := os.ReadFile(filepath.Join(root, name, "wal.dvbp"))
		if err != nil {
			t.Fatalf("fixture: %v", err)
		}
		wals[name] = b
	}

	reg := metrics.NewRegistry()
	store, err := OpenStore(root, Limits{}, reg)
	if err != nil {
		t.Fatalf("OpenStore on a parent-era directory: %v", err)
	}
	defer store.Close()
	url := newLocalServer(t, New(store, reg))
	if got, _ := reg.Snapshot().Find("dvbp_server_recovery_corruptions_total"); got.Value < 1 {
		t.Fatalf("the digest-less snapshot was not reported as skipped")
	}

	listed := map[string]map[int]PlacementRecord{}
	for _, name := range []string{"compacted", "walonly"} {
		var pl PlacementsResult
		mustStatus(t, http.StatusOK, call(t, "GET", url+"/v1/tenants/"+name+"/placements", nil, &pl), "placements")
		listed[name] = map[int]PlacementRecord{}
		for _, p := range pl.Placements {
			listed[name][p.Item] = p
		}
	}
	for _, a := range recorded.Places {
		want := PlacementRecord{Item: a.Item, Bin: a.Bin, Time: a.Time}
		if got, ok := listed[a.Tenant][a.Item]; !ok || got != want {
			t.Fatalf("%s: acknowledged %+v, listed %+v (present %v)", a.Tenant, want, got, ok)
		}
	}
	for _, a := range recorded.Advances {
		var st TenantStatus
		mustStatus(t, http.StatusOK, call(t, "GET", url+"/v1/tenants/"+a.Tenant, nil, &st), "status")
		if st.Watermark < a.To {
			t.Fatalf("%s: watermark %g behind the acknowledged advance to %g", a.Tenant, st.Watermark, a.To)
		}
	}
	for name, want := range wals {
		mustStatus(t, http.StatusOK, call(t, "POST", url+"/v1/tenants/"+name+"/place",
			placeBody{Duration: f(1), Size: []float64{0.25, 0.25}}, nil), "new placement")
		if got, err := os.ReadFile(filepath.Join(root, name, "wal.dvbp")); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: the leftover wal.dvbp was touched (err %v)", name, err)
		}
	}
}

// copyTree copies the directory tree at src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
