package persist

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/vfs"
)

// tortureRun is one persisted run shape: its engine options and its
// checkpoint interval.
type tortureRun struct {
	name  string
	opts  []core.Option
	every int64
}

// tortureRuns are the two persisted shapes the kill tortures cover: a
// faulty run, which takes no snapshots and recovers by replay from event 0,
// and a fault-free run that checkpoints every `every` events.
func tortureRuns(every int64) []tortureRun {
	return []tortureRun{{"faulty", faultOpts(), 0}, {"fault-free", nil, every}}
}

// TestTortureKillAndRecover is the crash-consistency torture loop: a run is
// persisted to completion once, then killed at dozens of random points — the
// op log cut at an arbitrary BYTE offset (not a record boundary), snapshots
// randomly deleted, random bits flipped — and recovered. Every recovery must
// either resume to a byte-identical final result (and, when it re-stepped
// the run from event 0, byte-identical metrics under a deterministic
// clock), or fail with a structured corruption error when the damage
// removed the run's identity. It must never panic and never produce a
// silently different packing.
func TestTortureKillAndRecover(t *testing.T) {
	l := testList(t, 80)
	const policy = "MoveToFront"
	for _, run := range tortureRuns(16) {
		// Uninterrupted reference run, keeping its directory as the template.
		refDir := t.TempDir()
		wantRes, wantMet := referenceRun(t, l, policy, refDir, run.every, run.opts)
		refLog, err := os.ReadFile(filepath.Join(refDir, opsFile))
		if err != nil {
			t.Fatal(err)
		}
		refFD, err := ReadFile(nil, filepath.Join(refDir, opsFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(refFD.Records) < 2 {
			t.Fatalf("%s: reference op log has %d records", run.name, len(refFD.Records))
		}
		// metaEnd is the first byte after the run-meta record: any cut at or
		// past it leaves a recoverable log.
		metaEnd := refFD.Offsets[1]

		rng := rand.New(rand.NewSource(987654321))
		const trials = 64
		recovered := 0
		for trial := 0; trial < trials; trial++ {
			dir := t.TempDir()
			copyRun(t, refDir, dir)
			mode := trial % 4
			cut := metaEnd + rng.Int63n(int64(len(refLog))-metaEnd+1)
			metaIntact := true
			switch mode {
			case 0: // kill: cut the op log at a random byte
				truncate(t, filepath.Join(dir, opsFile), cut)
			case 1: // kill + lose snapshots
				truncate(t, filepath.Join(dir, opsFile), cut)
				deleteRandomSnapshots(t, rng, dir)
			case 2: // bit flip anywhere in the op log
				off := rng.Int63n(int64(len(refLog)))
				flipByte(t, filepath.Join(dir, opsFile), off)
				// A flip inside the header or the meta record destroys the
				// run's identity; anywhere else only truncates the usable
				// suffix.
				metaIntact = off >= metaEnd
			case 3: // bit flip inside a random snapshot file
				flipRandomSnapshot(t, rng, dir)
			}

			col := newCollector()
			cfg := Config{Dir: dir, Every: run.every, SyncEvery: 1}
			rec, err := Recover(l, cfg, append(run.opts, core.WithObserver(col))...)
			if err != nil {
				if metaIntact {
					t.Fatalf("%s trial %d (mode %d): recovery failed with the meta intact: %v", run.name, trial, mode, err)
				}
				var ce *CorruptionError
				if !errors.As(err, &ce) && !strings.Contains(err.Error(), "persist:") {
					t.Fatalf("%s trial %d: unstructured recovery failure: %v", run.name, trial, err)
				}
				continue
			}
			fromStart := rec.SnapshotSeq == 0
			res, err := rec.Session.Run()
			if err != nil {
				t.Fatalf("%s trial %d (mode %d): resume failed: %v", run.name, trial, mode, err)
			}
			if got := resultJSON(t, res); got != wantRes {
				t.Fatalf("%s trial %d (mode %d): result diverged\n got %s\nwant %s", run.name, trial, mode, got, wantRes)
			}
			if got := col.Snapshot().JSON(); fromStart && got != wantMet {
				t.Fatalf("%s trial %d (mode %d): metrics diverged\n got %s\nwant %s", run.name, trial, mode, got, wantMet)
			}
			recovered++
		}
		if recovered < trials*3/4 {
			t.Fatalf("%s: only %d/%d trials recovered — damage modes are too destructive to exercise recovery", run.name, recovered, trials)
		}
	}
}

// TestTortureRepeatedCrashes kills the same run several times in a row — crash
// during recovery's own append window included — and still expects the final
// result to match.
func TestTortureRepeatedCrashes(t *testing.T) {
	l := testList(t, 80)
	const policy = "RandomFit"
	for _, run := range tortureRuns(8) {
		wantRes, _ := referenceRun(t, l, policy, t.TempDir(), run.every, run.opts)

		cfg := Config{Dir: t.TempDir(), Every: run.every, SyncEvery: 1}
		e, err := core.NewEngine(l, newTestPolicy(t, policy), run.opts...)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		s, err := Begin(e, NewRunMeta(l, policy, 1, "test"), cfg)
		if err != nil {
			e.Close()
			t.Fatalf("Begin: %v", err)
		}
		rng := rand.New(rand.NewSource(1357))
		for round := 0; ; round++ {
			// Step a random distance, then crash without closing cleanly.
			steps := 5 + rng.Intn(20)
			done := false
			for i := 0; i < steps; i++ {
				_, ok, err := s.Step()
				if err != nil {
					t.Fatalf("%s round %d step: %v", run.name, round, err)
				}
				if !ok {
					done = true
					break
				}
			}
			if done {
				res, err := s.Finish()
				if err != nil {
					t.Fatalf("%s Finish: %v", run.name, err)
				}
				if got := resultJSON(t, res); got != wantRes {
					t.Fatalf("%s: result diverged after %d crashes\n got %s\nwant %s", run.name, round, got, wantRes)
				}
				break
			}
			s.log.f.Close()
			s.engine.Close()

			rec, err := Recover(l, cfg, run.opts...)
			if err != nil {
				t.Fatalf("%s round %d recover: %v", run.name, round, err)
			}
			s = rec.Session
		}
	}
}

// copyRun clones a checkpoint directory.
func copyRun(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// deleteRandomSnapshots removes a random non-empty subset of snapshot files.
func deleteRandomSnapshots(t *testing.T, rng *rand.Rand, dir string) {
	t.Helper()
	snaps, err := listSnapshots(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		return
	}
	rng.Shuffle(len(snaps), func(i, j int) { snaps[i], snaps[j] = snaps[j], snaps[i] })
	n := 1 + rng.Intn(len(snaps))
	for _, sf := range snaps[:n] {
		if err := os.Remove(filepath.Join(dir, sf.name)); err != nil {
			t.Fatal(err)
		}
	}
}

// flipRandomSnapshot flips one random byte in one random snapshot file.
func flipRandomSnapshot(t *testing.T, rng *rand.Rand, dir string) {
	t.Helper()
	snaps, err := listSnapshots(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		return
	}
	sf := snaps[rng.Intn(len(snaps))]
	path := filepath.Join(dir, sf.name)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, path, rng.Int63n(info.Size()))
}

// TestTortureSnapshotNamesSorted pins the zero-padded snapshot naming that
// keeps lexical and numeric order identical (recovery iterates newest-first).
func TestTortureSnapshotNamesSorted(t *testing.T) {
	names := []string{snapName(5), snapName(80), snapName(9), snapName(1200)}
	lex := append([]string(nil), names...)
	sort.Strings(lex)
	want := []string{snapName(5), snapName(9), snapName(80), snapName(1200)}
	for i := range want {
		if lex[i] != want[i] {
			t.Fatalf("lexical order %v != numeric order %v", lex, want)
		}
	}
}
