package main

import (
	"os"
	"strings"
	"testing"
)

// TestDiskFaultsAbsorbedByteIdentical is the -disk-faults acceptance check:
// a run whose op-log syncs, snapshot writes, and directory fsyncs fail on
// schedule must absorb every planned fault (ride-out, skip, retry-later) and
// still print stdout byte-identical to a clean run — the disk weather is
// reported on stderr, never in the results.
func TestDiskFaultsAbsorbedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	bin := buildChaos(t)
	base := append([]string{"-policy", "FirstFit", "-json", "-checkpoint-every", "32"}, chaosArgs...)

	clean, _, code := runChaos(t, bin, append(append([]string{}, base...), "-checkpoint-dir", t.TempDir())...)
	if code != 0 {
		t.Fatalf("clean run exited %d", code)
	}

	// Begin consumes the first operation of each kind (the op log's create,
	// its header and meta write, fsync and directory sync) and is rightly
	// fatal there — a run that can't establish durability must not start.
	// These indices all land at runtime, where the absorb machinery has to
	// ride them out: op-log batch syncs, checkpoint temp writes, snapshot
	// renames' directory syncs.
	plan := "sync:5:eio,sync:6:enospc,syncdir:4:eio,write:8:enospc,sync:10:eio"
	faulty, stderr, code := runChaos(t, bin, append(append([]string{}, base...),
		"-checkpoint-dir", t.TempDir(), "-disk-faults", plan)...)
	if code != 0 {
		t.Fatalf("disk-fault run exited %d\nstderr: %s", code, stderr)
	}
	if faulty != clean {
		t.Fatalf("disk faults changed the results\n--- clean ---\n%s\n--- faulty ---\n%s", clean, faulty)
	}
	if !strings.Contains(stderr, "disk weather:") {
		t.Fatalf("no disk weather report on stderr:\n%s", stderr)
	}

	// A malformed plan is a usage error, not a crash.
	_, stderr, code = runChaos(t, bin, append(append([]string{}, base...),
		"-checkpoint-dir", t.TempDir(), "-disk-faults", "sync:0:eio")...)
	if code == 0 || !strings.Contains(stderr, "occurrence must be a positive integer") {
		t.Fatalf("bad plan: exit %d, stderr: %s", code, stderr)
	}

	// -disk-faults without -checkpoint-dir has nothing to inject into.
	_, stderr, code = runChaos(t, bin, append(append([]string{}, base...), "-disk-faults", "sync:2:eio")...)
	if code == 0 || !strings.Contains(stderr, "-checkpoint-dir") {
		t.Fatalf("disk faults without dir: exit %d, stderr: %s", code, stderr)
	}
}

// TestCheckpointDirKeepsOneSnapshot: a persisted run leaves its op log and
// one snapshot behind, whatever its length — every checkpoint deletes the
// ones before it — and restoring the finished directory reproduces stdout
// byte for byte.
func TestCheckpointDirKeepsOneSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	bin := buildChaos(t)
	base := append([]string{"-policy", "MoveToFront", "-json", "-checkpoint-every", "16"}, chaosArgs...)
	plain, _, code := runChaos(t, bin, base...)
	if code != 0 {
		t.Fatalf("plain run exited %d", code)
	}
	dir := t.TempDir()
	persisted, stderr, code := runChaos(t, bin, append(append([]string{}, base...), "-checkpoint-dir", dir)...)
	if code != 0 {
		t.Fatalf("persisted run exited %d\nstderr: %s", code, stderr)
	}
	if persisted != plain {
		t.Fatalf("persisting changed the results\n--- plain ---\n%s\n--- persisted ---\n%s", plain, persisted)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "ops.dvbp" || !strings.HasPrefix(names[1], "snap-") {
		t.Fatalf("checkpoint directory holds %v, want ops.dvbp and one snapshot", names)
	}

	restored, stderr, code := runChaos(t, bin, append(append([]string{}, base...),
		"-checkpoint-dir", dir, "-restore")...)
	if code != 0 {
		t.Fatalf("restore exited %d\nstderr: %s", code, stderr)
	}
	if restored != plain {
		t.Fatalf("restore diverged\n--- plain ---\n%s\n--- restored ---\n%s", plain, restored)
	}
}
