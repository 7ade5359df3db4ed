package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/metrics"
	"dvbp/internal/persist"
	"dvbp/internal/vfs"
)

// Store directory layout:
//
//	root/tenants.json       manifest: []TenantConfig, atomically replaced
//	root/<tenant>/ops.dvbp  the tenant's op log (persist.KindOpLog), its one durable log
//	root/<tenant>/snap-*    the tenant's newest checkpoint
//
// A wal.dvbp left in a tenant directory by an older version is ignored.
const (
	manifestFile = "tenants.json"
	opsFile      = "ops.dvbp"
)

// tenantName pins the tenant-name grammar: path-safe, no dots, no
// separators, bounded length.
var tenantName = regexp.MustCompile(`^[a-zA-Z0-9_-]{1,64}$`)

// storeMetrics is the instrument set a Store maintains in the server's
// metrics registry.
type storeMetrics struct {
	tenants        *metrics.Gauge
	queueDepth     *metrics.Gauge
	batchSize      *metrics.Histogram
	backpressure   *metrics.Counter
	deadlines      *metrics.Counter
	items          *metrics.Counter
	events         *metrics.Counter
	tenantFailures *metrics.Counter
	recoveries     *metrics.Counter
	corruptions    *metrics.Counter
	ioRetries      *metrics.Counter
	degraded       *metrics.Gauge
}

func newStoreMetrics(reg *metrics.Registry) *storeMetrics {
	return &storeMetrics{
		tenants:        reg.Gauge("dvbp_server_tenants", "live tenants"),
		queueDepth:     reg.Gauge("dvbp_server_queue_depth", "requests currently queued across tenants"),
		batchSize:      reg.Histogram("dvbp_server_batch_size", "requests per group commit", 1, 2, 4, 8, 16, 32, 64, 128),
		backpressure:   reg.Counter("dvbp_server_backpressure_total", "requests refused with 429 because a tenant queue was full"),
		deadlines:      reg.Counter("dvbp_server_deadline_total", "requests expired in queue and refused with 503"),
		items:          reg.Counter("dvbp_server_items_total", "items placed across tenants"),
		events:         reg.Counter("dvbp_server_events_total", "engine events committed across tenants"),
		tenantFailures: reg.Counter("dvbp_server_tenant_failures_total", "tenants poisoned by a persistence failure"),
		recoveries:     reg.Counter("dvbp_server_recovered_tenants_total", "tenants recovered from disk at startup"),
		corruptions:    reg.Counter("dvbp_server_recovery_corruptions_total", "corruptions tolerated during tenant recovery (torn tails, skipped snapshots)"),
		ioRetries:      reg.Counter("dvbp_server_io_retries_total", "transient I/O failures retried or absorbed instead of poisoning a tenant"),
		degraded:       reg.Gauge("dvbp_server_degraded_tenants", "tenants currently in read-only degraded mode"),
	}
}

// Store owns the multi-tenant data directory: the manifest, one subdirectory
// per tenant, and the live Tenant workers. All methods are safe for
// concurrent use.
type Store struct {
	root   string
	limits Limits
	fs     vfs.FS
	m      *storeMetrics

	mu      sync.RWMutex
	tenants map[string]*Tenant
	closed  bool
}

// OpenStore opens (creating if needed) the data directory at root and
// recovers every tenant in the manifest. Recovery is all-or-nothing per
// store: a tenant whose data is damaged beyond the persist layer's tolerance
// fails the open, because silently dropping a tenant would break the
// acknowledged-placements contract.
func OpenStore(root string, limits Limits, reg *metrics.Registry) (*Store, error) {
	if root == "" {
		return nil, fmt.Errorf("server: no data directory configured")
	}
	fsys := vfs.OrOS(limits.FS)
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Store{
		root:    root,
		limits:  limits.withDefaults(),
		fs:      fsys,
		m:       newStoreMetrics(reg),
		tenants: make(map[string]*Tenant),
	}
	cfgs, err := s.readManifest()
	if err != nil {
		return nil, err
	}
	for _, cfg := range cfgs {
		t, err := s.recoverTenant(cfg)
		if err != nil {
			for _, live := range s.tenants {
				live.close()
			}
			return nil, fmt.Errorf("server: recovering tenant %q: %w", cfg.Name, err)
		}
		s.tenants[cfg.Name] = t
		s.m.recoveries.Inc()
	}
	s.m.tenants.Set(float64(len(s.tenants)))
	return s, nil
}

// readManifest loads the tenant list; a missing manifest is an empty store.
func (s *Store) readManifest() ([]TenantConfig, error) {
	data, err := s.fs.ReadFile(filepath.Join(s.root, manifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	var cfgs []TenantConfig
	if err := json.Unmarshal(data, &cfgs); err != nil {
		return nil, fmt.Errorf("server: corrupt manifest %s: %w", manifestFile, err)
	}
	return cfgs, nil
}

// writeManifest atomically replaces the manifest with the current tenant
// set. Caller holds s.mu.
func (s *Store) writeManifest() error {
	cfgs := make([]TenantConfig, 0, len(s.tenants))
	for _, t := range s.tenants {
		cfgs = append(cfgs, t.cfg)
	}
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].Name < cfgs[j].Name })
	data, err := json.MarshalIndent(cfgs, "", "  ")
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return persist.WriteFileAtomic(s.fs, filepath.Join(s.root, manifestFile), append(data, '\n'))
}

// checkConfig validates a tenant config at admission time.
func checkConfig(cfg TenantConfig) *apiError {
	if !tenantName.MatchString(cfg.Name) {
		return errf(http.StatusBadRequest, "bad_name",
			"tenant name %q must match %s", cfg.Name, tenantName.String())
	}
	if cfg.Dim < 1 || cfg.Dim > 64 {
		return errf(http.StatusBadRequest, "bad_dim", "dim %d outside [1, 64]", cfg.Dim)
	}
	if cfg.CheckpointEvery < 0 {
		return errf(http.StatusBadRequest, "bad_checkpoint", "checkpoint_every %d is negative", cfg.CheckpointEvery)
	}
	if _, err := core.NewPolicy(cfg.Policy, cfg.Seed); err != nil {
		return errf(http.StatusBadRequest, "bad_policy", "%v", err)
	}
	return nil
}

// Create provisions a fresh tenant: directory, op log, worker. The manifest
// is updated only after the op log is durably in place.
func (s *Store) Create(cfg TenantConfig) (*Tenant, *apiError) {
	if aerr := checkConfig(cfg); aerr != nil {
		return nil, aerr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errDraining
	}
	if _, dup := s.tenants[cfg.Name]; dup {
		return nil, errf(http.StatusConflict, "tenant_exists", "tenant %q already exists", cfg.Name)
	}
	p, err := core.NewPolicy(cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "bad_policy", "%v", err)
	}
	engine, err := core.NewEngine(item.NewList(cfg.Dim), p, core.WithDynamicArrivals())
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "engine", "%v", err)
	}
	pcfg := s.sessionConfig(cfg)
	session, err := persist.Begin(engine, persist.NewDynamicRunMeta(cfg.Dim, cfg.Policy, cfg.Seed, ""), pcfg)
	if err != nil {
		engine.Close()
		return nil, errf(http.StatusInternalServerError, "io", "starting session: %v", err)
	}
	t := newTenant(cfg, pcfg.Dir, s.limits, s.m)
	t.start(session, 0)
	s.tenants[cfg.Name] = t
	if err := s.writeManifest(); err != nil {
		delete(s.tenants, cfg.Name)
		t.close()
		return nil, errf(http.StatusInternalServerError, "io", "writing manifest: %v", err)
	}
	s.m.tenants.Set(float64(len(s.tenants)))
	return t, nil
}

// sessionConfig is a tenant's persistence shape. The op log syncs only at
// the group-commit barrier (SyncManual): a failed barrier can then roll the
// whole batch back, all-or-nothing, with no auto-sync having leaked half of
// it to the device.
func (s *Store) sessionConfig(cfg TenantConfig) persist.Config {
	return persist.Config{
		Dir: filepath.Join(s.root, cfg.Name), Label: cfg.Name, Every: cfg.CheckpointEvery,
		SyncEvery: persist.SyncManual, FS: s.fs,
	}
}

// recoverTenant rebuilds one tenant from its directory: item list and
// watermark from the op log, engine state from the newest snapshot
// re-stepped to the position the log pins, which puts every acknowledged
// placement and departure back.
func (s *Store) recoverTenant(cfg TenantConfig) (*Tenant, error) {
	if aerr := checkConfig(cfg); aerr != nil {
		return nil, aerr
	}
	pcfg := s.sessionConfig(cfg)
	logged, err := persist.ReadOpLog(s.fs, filepath.Join(pcfg.Dir, opsFile), cfg.Name)
	if err != nil {
		return nil, err
	}
	if want := persist.NewDynamicRunMeta(cfg.Dim, cfg.Policy, cfg.Seed, ""); logged.Meta != want {
		return nil, fmt.Errorf("op log identity %+v disagrees with manifest %+v", logged.Meta, want)
	}
	rec, err := persist.Recover(logged.List, pcfg, core.WithDynamicArrivals())
	if err != nil {
		return nil, err
	}
	s.m.corruptions.Add(uint64(len(rec.Corruptions)))
	t := newTenant(cfg, pcfg.Dir, s.limits, s.m)
	t.start(rec.Session, logged.Watermark)
	return t, nil
}

// Get returns the named live tenant.
func (s *Store) Get(name string) (*Tenant, *apiError) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tenants[name]; ok {
		return t, nil
	}
	return nil, errf(http.StatusNotFound, "no_such_tenant", "no tenant %q", name)
}

// List returns the tenant configs, sorted by name.
func (s *Store) List() []TenantConfig {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]TenantConfig, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t.cfg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delete drains and removes a tenant: worker stopped, manifest updated,
// directory deleted.
func (s *Store) Delete(name string) *apiError {
	s.mu.Lock()
	t, ok := s.tenants[name]
	if !ok {
		s.mu.Unlock()
		return errf(http.StatusNotFound, "no_such_tenant", "no tenant %q", name)
	}
	delete(s.tenants, name)
	merr := s.writeManifest()
	s.m.tenants.Set(float64(len(s.tenants)))
	s.mu.Unlock()

	t.close()
	if err := s.fs.RemoveAll(t.dir); err != nil {
		return errf(http.StatusInternalServerError, "io", "removing tenant data: %v", err)
	}
	if merr != nil {
		return errf(http.StatusInternalServerError, "io", "writing manifest: %v", merr)
	}
	return nil
}

// Degraded lists the names of tenants currently in read-only degraded mode,
// sorted; /readyz reports them.
func (s *Store) Degraded() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for name, t := range s.tenants {
		if t.degradedFlag.Load() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Close drains every tenant: intake stops, queued batches finish and are
// acknowledged, op logs sync and close. The store refuses new tenants
// afterwards.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	live := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		live = append(live, t)
	}
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, t := range live {
		wg.Add(1)
		go func(t *Tenant) {
			defer wg.Done()
			t.close()
		}(t)
	}
	wg.Wait()
}
