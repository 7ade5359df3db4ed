package persist

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/metrics"
	"dvbp/internal/migrate"
	"dvbp/internal/vector"
)

// migList is the canonical consolidation workload (see internal/migrate):
// pairs of a big short-lived and a small long-lived item, all at t=0.
// FirstFit leaves `pairs` lightly-loaded bins after the bigs depart at 1.5;
// the first consolidation pass at t=2 then drains most of them in one
// multi-move plan — exactly the pass the SIGKILL sweep must land inside.
// The small size is skewed so the drain-emptiest and farb-score planners
// pick different targets (the option-mismatch test needs plans to differ).
func migList(pairs int) *item.List {
	l := item.NewList(2)
	for i := 0; i < pairs; i++ {
		l.Add(0, 1.5, vector.Vector{0.7, 0.7})
		l.Add(0, 100, vector.Vector{0.25, 0.05})
	}
	return l
}

// migCfg is the migration configuration of the torture runs; its String()
// lands in RunMeta.Migration like a fault plan's display string.
var migCfg = migrate.Config{Planner: "drain-emptiest", Period: 2, MaxMoves: 16}

func migOpts(t *testing.T) []core.Option {
	t.Helper()
	opt, err := migCfg.Option()
	if err != nil {
		t.Fatalf("migration option: %v", err)
	}
	return []core.Option{opt}
}

func migMeta(l *item.List) RunMeta {
	m := NewRunMeta(l, "FirstFit", 1, "")
	m.Migration = migCfg.String()
	return m
}

// TestTortureMigrationKillAndRecover SIGKILLs a migrating persisted run after
// every event index — including every boundary inside the multi-move
// consolidation pass — and requires recovery to resume to a byte-identical
// result with byte-identical metrics. Moves are re-stepped from the last
// snapshot and checked against the op log's digest marks, never half-applied.
func TestTortureMigrationKillAndRecover(t *testing.T) {
	l := migList(8)
	const every = 4

	// Uninterrupted reference run.
	refCol := metrics.NewCollector(metrics.WithClock(&metrics.Manual{}))
	e, err := core.NewEngine(l, newTestPolicy(t, "FirstFit"), append(migOpts(t), core.WithObserver(refCol))...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	refDir := t.TempDir()
	s, err := Begin(e, migMeta(l), Config{Dir: refDir, Every: every, Aux: []AuxCodec{refCol.Registry()}})
	if err != nil {
		e.Close()
		t.Fatalf("Begin: %v", err)
	}
	var refRecs []core.EventRecord
	for {
		rec, ok, err := s.Step()
		if err != nil {
			t.Fatalf("reference step: %v", err)
		}
		if !ok {
			break
		}
		refRecs = append(refRecs, rec)
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatalf("reference finish: %v", err)
	}
	wantRes := resultJSON(t, res)
	wantMet, err := refCol.Registry().MarshalAux()
	if err != nil {
		t.Fatalf("metrics marshal: %v", err)
	}
	if res.Migrations < 2 || res.BinsDrained == 0 {
		t.Fatalf("reference run migrated %d items (drained %d) — not a migration torture", res.Migrations, res.BinsDrained)
	}
	midPass := 0 // boundaries strictly between two moves of one pass
	for i := 0; i+1 < len(refRecs); i++ {
		if refRecs[i].Class == core.EventMigration && refRecs[i+1].Class == core.EventMigration {
			midPass++
		}
	}
	if midPass == 0 {
		t.Fatal("no multi-move pass in the reference run; the kill sweep would never land mid-pass")
	}

	// Kill after every event index (0 = before any event), then recover.
	for kill := 0; kill <= len(refRecs); kill++ {
		dir := t.TempDir()
		col := metrics.NewCollector(metrics.WithClock(&metrics.Manual{}))
		e, err := core.NewEngine(l, newTestPolicy(t, "FirstFit"), append(migOpts(t), core.WithObserver(col))...)
		if err != nil {
			t.Fatalf("kill=%d NewEngine: %v", kill, err)
		}
		s, err := Begin(e, migMeta(l), Config{Dir: dir, Every: every, SyncEvery: 1, Aux: []AuxCodec{col.Registry()}})
		if err != nil {
			e.Close()
			t.Fatalf("kill=%d Begin: %v", kill, err)
		}
		for i := 0; i < kill; i++ {
			rec, ok, err := s.Step()
			if err != nil || !ok {
				t.Fatalf("kill=%d step %d: ok=%v err=%v", kill, i, ok, err)
			}
			if rec != refRecs[i] {
				t.Fatalf("kill=%d: event %d diverged before the kill:\n got %+v\nwant %+v", kill, i, rec, refRecs[i])
			}
		}
		// SIGKILL: drop the handles, no clean shutdown.
		s.log.f.Close()
		s.engine.Close()

		col2 := metrics.NewCollector(metrics.WithClock(&metrics.Manual{}))
		rec, err := Recover(l, Config{Dir: dir, Every: every, SyncEvery: 1, Aux: []AuxCodec{col2.Registry()}},
			append(migOpts(t), core.WithObserver(col2))...)
		if err != nil {
			t.Fatalf("kill=%d recover: %v", kill, err)
		}
		if rec.Meta.Migration != migCfg.String() {
			t.Fatalf("kill=%d: recovered meta migration %q, want %q", kill, rec.Meta.Migration, migCfg.String())
		}
		res, err := rec.Session.Run()
		if err != nil {
			t.Fatalf("kill=%d resume: %v", kill, err)
		}
		if got := resultJSON(t, res); got != wantRes {
			t.Fatalf("kill=%d: result diverged\n got %s\nwant %s", kill, got, wantRes)
		}
		mj, err := col2.Registry().MarshalAux()
		if err != nil {
			t.Fatalf("kill=%d metrics marshal: %v", kill, err)
		}
		if string(mj) != string(wantMet) {
			t.Fatalf("kill=%d: metrics diverged\n got %s\nwant %s", kill, mj, wantMet)
		}
	}
}

// TestTortureMigrationTornOpLog cuts a completed migrating run's op log, with
// a digest mark after every event, at random byte offsets — mid-record, at
// marks inside a migration pass — and requires recovery to re-derive the
// byte-identical final result from the surviving prefix.
func TestTortureMigrationTornOpLog(t *testing.T) {
	l := migList(8)
	const every = 4

	refDir := t.TempDir()
	refCol := metrics.NewCollector(metrics.WithClock(&metrics.Manual{}))
	e, err := core.NewEngine(l, newTestPolicy(t, "FirstFit"), append(migOpts(t), core.WithObserver(refCol))...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := Begin(e, migMeta(l), Config{Dir: refDir, Every: every, SyncEvery: 1, Aux: []AuxCodec{refCol.Registry()}})
	if err != nil {
		e.Close()
		t.Fatalf("Begin: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantRes := resultJSON(t, res)

	refLog, err := os.ReadFile(filepath.Join(refDir, opsFile))
	if err != nil {
		t.Fatal(err)
	}
	fd, err := ReadFile(nil, filepath.Join(refDir, opsFile))
	if err != nil {
		t.Fatal(err)
	}
	metaEnd := fd.Offsets[1]

	rng := rand.New(rand.NewSource(24680))
	for trial := 0; trial < 24; trial++ {
		dir := t.TempDir()
		copyRun(t, refDir, dir)
		cut := metaEnd + rng.Int63n(int64(len(refLog))-metaEnd+1)
		truncate(t, filepath.Join(dir, opsFile), cut)
		if trial%2 == 1 {
			deleteRandomSnapshots(t, rng, dir)
		}

		col := metrics.NewCollector(metrics.WithClock(&metrics.Manual{}))
		rec, err := Recover(l, Config{Dir: dir, Every: every, Aux: []AuxCodec{col.Registry()}},
			append(migOpts(t), core.WithObserver(col))...)
		if err != nil {
			t.Fatalf("trial %d (cut %d): recover: %v", trial, cut, err)
		}
		res, err := rec.Session.Run()
		if err != nil {
			t.Fatalf("trial %d (cut %d): resume: %v", trial, cut, err)
		}
		if got := resultJSON(t, res); got != wantRes {
			t.Fatalf("trial %d (cut %d): result diverged\n got %s\nwant %s", trial, cut, got, wantRes)
		}
	}
}

// TestTortureMigrationOptionMismatch: recovering a migrating run without
// re-supplying WithMigration (or with a different planner) must fail loudly
// — either at snapshot restore (migration state present, option absent) or
// at the digest marks (regenerated events diverge) — never silently produce
// a different packing. The run is killed mid-pass with snapshotting
// effectively off, so recovery must re-plan the pass while re-stepping the
// run from its start: that is the path a wrong planner poisons.
func TestTortureMigrationOptionMismatch(t *testing.T) {
	l := migList(8)
	dir := t.TempDir()
	e, err := core.NewEngine(l, newTestPolicy(t, "FirstFit"), migOpts(t)...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cfg := Config{Dir: dir, Every: 1 << 30, SyncEvery: 1}
	s, err := Begin(e, migMeta(l), cfg)
	if err != nil {
		e.Close()
		t.Fatalf("Begin: %v", err)
	}
	migs := 0
	for migs < 2 {
		rec, ok, err := s.Step()
		if err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v (migrations so far: %d)", ok, err, migs)
		}
		if rec.Class == core.EventMigration {
			migs++
		}
	}
	s.log.f.Close()
	s.engine.Close()

	if _, err := Recover(l, cfg); err == nil {
		t.Fatal("recovered a migrating run without WithMigration")
	}
	other, err := migrate.NewPlanner("farb-score")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Recover(l, cfg,
		core.WithMigration(other, 2, core.MigrationBudget{MaxMoves: 16}))
	if err == nil {
		t.Fatal("recovered with a mismatched planner and no divergence")
	}
}
