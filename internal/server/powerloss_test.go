package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"dvbp/internal/metrics"
	"dvbp/internal/vfs"
)

// This file holds the server-level power-loss wall: the acknowledged-
// placements contract of DESIGN.md §12 checked at every mutating filesystem
// operation a short two-tenant script performs, against the store's own
// recovery, and the cost of one acknowledged placement in filesystem ops.

// serve sends one JSON request straight into the handler, with no listener
// in between, and decodes the JSON answer into out when out is non-nil. It
// returns the status code.
func serve(t testing.TB, h http.Handler, method, path string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	if out != nil && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// powerLossTenants are the sweep's two tenants: one checkpointing every 4
// events, one that never checkpoints.
var powerLossTenants = []TenantConfig{
	{Name: "snap", Dim: 2, Policy: "FirstFit", Seed: 1, CheckpointEvery: 4},
	{Name: "nosnap", Dim: 2, Policy: "BestFit", Seed: 2},
}

// powerLossAcks is what one pass of the script got acknowledged.
type powerLossAcks struct {
	created map[string]bool
	places  map[string][]PlaceResult
	advance map[string]float64 // largest acknowledged advance target
}

// runPowerLossScript opens a store on fsys and drives the script: both
// tenants created, then a dozen places each, interleaved, with one advance
// per tenant after the eighth place and one placements read per tenant at
// the end; then the store is closed. A status the crash explains (500 from a
// failed tenant or create, 503 from a degraded one, 404 for a tenant whose
// create failed) is tolerated; anything else fails the test.
func runPowerLossScript(t *testing.T, fsys vfs.FS) (powerLossAcks, error) {
	t.Helper()
	acks := powerLossAcks{created: map[string]bool{}, places: map[string][]PlaceResult{}, advance: map[string]float64{}}
	reg := metrics.NewRegistry()
	store, err := OpenStore("data", Limits{FS: fsys, RetryAttempts: -1}, reg)
	if err != nil {
		return acks, err
	}
	defer store.Close()
	h := New(store, reg)
	tolerated := func(code int, what string) {
		t.Helper()
		switch code {
		case http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusNotFound:
		default:
			t.Fatalf("%s: status %d", what, code)
		}
	}
	for _, cfg := range powerLossTenants {
		if code := serve(t, h, "POST", "/v1/tenants", cfg, nil); code == http.StatusCreated {
			acks.created[cfg.Name] = true
		} else {
			tolerated(code, "create "+cfg.Name)
		}
	}
	items := stream(2, 12, 4)
	for i, it := range items {
		for _, cfg := range powerLossTenants {
			var pr PlaceResult
			code := serve(t, h, "POST", "/v1/tenants/"+cfg.Name+"/place",
				placeBody{Arrival: f(it.arrival), Departure: f(it.departure), Size: it.size}, &pr)
			if code == http.StatusOK {
				acks.places[cfg.Name] = append(acks.places[cfg.Name], pr)
			} else {
				tolerated(code, "place")
			}
			if i == 7 {
				code := serve(t, h, "POST", "/v1/tenants/"+cfg.Name+"/advance", advanceBody{To: it.arrival + 0.5}, nil)
				if code == http.StatusOK {
					acks.advance[cfg.Name] = it.arrival + 0.5
				} else {
					tolerated(code, "advance")
				}
			}
		}
	}
	for _, cfg := range powerLossTenants {
		if code := serve(t, h, "GET", "/v1/tenants/"+cfg.Name+"/placements", nil, nil); code != http.StatusOK {
			tolerated(code, "placements")
		}
	}
	return acks, nil
}

// checkPowerLossRecovery reopens the store on fsys after a power loss and
// checks the contract: every acknowledged placement listed identically, the
// watermark at or past every acknowledged advance, no tenant failed or
// degraded, and a new placement accepted by each tenant. A tenant absent
// after the restart must never have had its creation acknowledged; it is
// created afresh so the new placement can land.
func checkPowerLossRecovery(t *testing.T, fsys vfs.FS, acks powerLossAcks, point string) {
	t.Helper()
	reg := metrics.NewRegistry()
	store, err := OpenStore("data", Limits{FS: fsys}, reg)
	if err != nil {
		t.Fatalf("%s: reopening the store: %v", point, err)
	}
	defer store.Close()
	h := New(store, reg)
	for _, cfg := range powerLossTenants {
		var st TenantStatus
		code := serve(t, h, "GET", "/v1/tenants/"+cfg.Name, nil, &st)
		if code == http.StatusNotFound {
			if acks.created[cfg.Name] {
				t.Fatalf("%s: tenant %s was created with 201 but is gone after the restart", point, cfg.Name)
			}
			if code := serve(t, h, "POST", "/v1/tenants", cfg, nil); code != http.StatusCreated {
				t.Fatalf("%s: recreating %s: status %d", point, cfg.Name, code)
			}
			continue
		}
		if code != http.StatusOK || st.Degraded {
			t.Fatalf("%s: tenant %s answers status %d (degraded %v) after the restart", point, cfg.Name, code, st.Degraded)
		}
		if adv, ok := acks.advance[cfg.Name]; ok && st.Watermark < adv {
			t.Fatalf("%s: tenant %s watermark %g is behind the acknowledged advance to %g", point, cfg.Name, st.Watermark, adv)
		}
		var pl PlacementsResult
		if code := serve(t, h, "GET", "/v1/tenants/"+cfg.Name+"/placements", nil, &pl); code != http.StatusOK {
			t.Fatalf("%s: placements of %s: status %d", point, cfg.Name, code)
		}
		listed := make(map[int]PlacementRecord, len(pl.Placements))
		for _, p := range pl.Placements {
			listed[p.Item] = p
		}
		for _, a := range acks.places[cfg.Name] {
			want := PlacementRecord{Item: a.Item, Bin: a.Bin, Time: a.Time}
			if got, ok := listed[a.Item]; !ok || got != want {
				t.Fatalf("%s: tenant %s acknowledged %+v but lists %+v (present %v)", point, cfg.Name, want, got, ok)
			}
		}
	}
	for _, cfg := range powerLossTenants {
		code := serve(t, h, "POST", "/v1/tenants/"+cfg.Name+"/place",
			placeBody{Duration: f(1), Size: []float64{0.25, 0.25}}, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: tenant %s refused a new placement after the restart: status %d", point, cfg.Name, code)
		}
	}
	if code := serve(t, h, "GET", "/readyz", nil, nil); code != http.StatusOK {
		t.Fatalf("%s: readyz %d after the restart", point, code)
	}
}

// TestServerPowerLossAtEveryFSOp counts the mutating filesystem operations
// of one clean pass of the script, then replays it once per operation with a
// power loss at exactly that operation, cycling the lost, flushed and torn
// crash modes, and checks the reopened store against what the pass got
// acknowledged.
func TestServerPowerLossAtEveryFSOp(t *testing.T) {
	base := vfs.NewMem()
	acks, err := runPowerLossScript(t, base)
	if err != nil {
		t.Fatalf("clean pass: %v", err)
	}
	for _, cfg := range powerLossTenants {
		if len(acks.places[cfg.Name]) != 12 {
			t.Fatalf("clean pass acknowledged %d places on %s, want 12", len(acks.places[cfg.Name]), cfg.Name)
		}
	}
	total := base.Ops()
	checkPowerLossRecovery(t, base, acks, "clean pass")
	if total < 50 {
		t.Fatalf("the script performed only %d mutating FS ops", total)
	}
	for i := int64(1); i <= total; i++ {
		m := vfs.NewMem()
		mode := vfs.CrashMode(i % 3)
		m.SetCrashPoint(i, mode, 1+7*i)
		acks, err := runPowerLossScript(t, m)
		if err != nil && !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("crash point %d: opening the store: %v", i, err)
		}
		if !m.Crashed() {
			t.Fatalf("crash point %d/%d never fired", i, total)
		}
		m.Restart()
		checkPowerLossRecovery(t, m, acks, fmt.Sprintf("crash point %d/%d (%s)", i, total, mode))
	}
	t.Logf("swept %d crash points", total)
}

// TestServerPlaceCostsOneWriteOneFsync pins the commit path's filesystem
// cost: a placement whose batch crosses no checkpoint performs exactly two
// mutating operations, one write and one fsync.
func TestServerPlaceCostsOneWriteOneFsync(t *testing.T) {
	m := vfs.NewMem()
	inj := vfs.NewInjector(m)
	reg := metrics.NewRegistry()
	store, err := OpenStore("data", Limits{FS: inj}, reg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer store.Close()
	h := New(store, reg)
	cfg := TenantConfig{Name: "cost", Dim: 2, Policy: "FirstFit", Seed: 1}
	if code := serve(t, h, "POST", "/v1/tenants", cfg, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	for i, it := range stream(2, 6, 1) {
		before, ops := inj.Counts(), m.Ops()
		if code := serve(t, h, "POST", "/v1/tenants/cost/place",
			placeBody{Arrival: f(it.arrival), Departure: f(it.departure), Size: it.size}, nil); code != http.StatusOK {
			t.Fatalf("place %d: status %d", i, code)
		}
		after := inj.Counts()
		if got := m.Ops() - ops; got != 2 {
			t.Fatalf("place %d cost %d mutating FS ops, want 2", i, got)
		}
		if w, s := after[vfs.FaultWrite]-before[vfs.FaultWrite], after[vfs.FaultSync]-before[vfs.FaultSync]; w != 1 || s != 1 {
			t.Fatalf("place %d cost %d writes and %d fsyncs, want 1 and 1", i, w, s)
		}
	}
}
