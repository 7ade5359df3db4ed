package main

import (
	"os"
	"strings"
	"testing"
)

// TestDiskFaultsAbsorbedByteIdentical is the -disk-faults acceptance check:
// a run whose op-log writes and fsyncs fail on schedule must absorb every
// planned fault (the records stay buffered and a later barrier retries them)
// and still print stdout byte-identical to a clean run — the disk weather is
// reported on stderr, never in the results.
func TestDiskFaultsAbsorbedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	bin := buildChaos(t)
	base := append([]string{"-policy", "FirstFit", "-json"}, chaosArgs...)

	clean, _, code := runChaos(t, bin, append(append([]string{}, base...), "-checkpoint-dir", t.TempDir())...)
	if code != 0 {
		t.Fatalf("clean run exited %d", code)
	}

	// Begin consumes the first operation of each kind (the op log's create,
	// its header and meta write, fsync and directory sync) and is rightly
	// fatal there — a run that can't establish durability must not start.
	// These five faults all land on the op-log writes and fsyncs of batch
	// barriers, the only disk operations a running persisted run performs,
	// where the absorb machinery has to ride them out.
	plan := "sync:2:eio,write:3:enospc,sync:4:enospc,write:6:eio,sync:7:eio"
	faulty, stderr, code := runChaos(t, bin, append(append([]string{}, base...),
		"-checkpoint-dir", t.TempDir(), "-disk-faults", plan)...)
	if code != 0 {
		t.Fatalf("disk-fault run exited %d\nstderr: %s", code, stderr)
	}
	if faulty != clean {
		t.Fatalf("disk faults changed the results\n--- clean ---\n%s\n--- faulty ---\n%s", clean, faulty)
	}
	if !strings.Contains(stderr, "disk weather: 5 absorbed sync failures") {
		t.Fatalf("the five planned faults were not all absorbed:\n%s", stderr)
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

// TestCheckpointDirHoldsOnlyOpLog: a persisted run writes its op log and
// nothing else, and restoring the finished directory re-steps the whole run
// from event 0 to stdout byte-identical to an unpersisted run.
func TestCheckpointDirHoldsOnlyOpLog(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	bin := buildChaos(t)
	base := append([]string{"-policy", "MoveToFront", "-json", "-metrics"}, chaosArgs...)
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
	if len(names) != 1 || names[0] != "ops.dvbp" {
		t.Fatalf("checkpoint directory holds %v, want only ops.dvbp", names)
	}

	restored, stderr, code := runChaos(t, bin, append(append([]string{}, base...),
		"-checkpoint-dir", dir, "-restore")...)
	if code != 0 {
		t.Fatalf("restore exited %d\nstderr: %s", code, stderr)
	}
	if restored != plain {
		t.Fatalf("restore diverged\n--- plain ---\n%s\n--- restored ---\n%s", plain, restored)
	}
	requireReplayedFromStart(t, stderr)
}
