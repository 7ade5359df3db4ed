package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var simArgs = []string{
	"-d", "2", "-n", "200", "-mu", "8", "-T", "150", "-B", "100", "-seed", "5",
	"-policy", "MoveToFront",
	"-mtbf", "25", "-fault-seed", "3", "-retry", "fixed:1",
	"-max-servers", "12", "-queue-deadline", "4",
}

func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dvbpsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func runSim(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("%s %v: %v", bin, args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// TestSimCheckpointRestore: persisting must not change the output and
// leaves only the op log, an expired -timeout must exit 2 leaving the
// directory resumable, and -restore must re-step the run from event 0 to
// stdout byte-identical to an uninterrupted one.
func TestSimCheckpointRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	bin := buildSim(t)

	wantOut, _, code := runSim(t, bin, simArgs...)
	if code != 0 {
		t.Fatalf("reference run exited %d", code)
	}

	ckpt := t.TempDir()
	out, _, code := runSim(t, bin, append(append([]string{}, simArgs...), "-checkpoint-dir", ckpt)...)
	if code != 0 {
		t.Fatalf("checkpointed run exited %d", code)
	}
	if out != wantOut {
		t.Fatalf("checkpointed run output differs:\n--- plain ---\n%s\n--- checkpointed ---\n%s", wantOut, out)
	}
	if entries, err := os.ReadDir(ckpt); err != nil || len(entries) != 1 || entries[0].Name() != "ops.dvbp" {
		t.Fatalf("checkpoint directory holds %v (err %v), want only ops.dvbp", entries, err)
	}

	// Interrupt a fresh checkpointed run via -timeout, then resume it.
	dir := t.TempDir()
	_, stderr, code := runSim(t, bin, append(append([]string{}, simArgs...),
		"-checkpoint-dir", dir, "-timeout", "1ns")...)
	if code != 2 {
		t.Fatalf("timed-out run exited %d, want 2\nstderr: %s", code, stderr)
	}
	out, stderr, code = runSim(t, bin, append(append([]string{}, simArgs...), "-checkpoint-dir", dir, "-restore")...)
	if code != 0 {
		t.Fatalf("restore exited %d\nstderr: %s", code, stderr)
	}
	if out != wantOut {
		t.Fatalf("restored run diverged:\n--- want ---\n%s\n--- got ---\n%s", wantOut, out)
	}
	if !strings.Contains(stderr, "resumed at event 0 (snapshot 0 + 0 replayed)") {
		t.Errorf("restore stderr lacks the from-the-start resume notice: %s", stderr)
	}
}

// TestSimTimeoutExitCode: the shared exit-code convention — timeout is 2,
// plain failures are 1 — without any checkpointing involved.
func TestSimTimeoutExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	bin := buildSim(t)
	_, stderr, code := runSim(t, bin, append(append([]string{}, simArgs...), "-timeout", "1ns")...)
	if code != 2 {
		t.Fatalf("timeout exited %d, want 2\nstderr: %s", code, stderr)
	}
	if _, _, code := runSim(t, bin, "-policy", "NoSuchPolicy"); code != 1 {
		t.Fatalf("bad policy exited %d, want 1", code)
	}
	if _, _, code := runSim(t, bin, append(append([]string{}, simArgs...), "-all", "-checkpoint-dir", t.TempDir())...); code != 1 {
		t.Fatalf("-all with -checkpoint-dir exited %d, want 1", code)
	}
	if _, _, code := runSim(t, bin, append(append([]string{}, simArgs...), "-restore")...); code != 1 {
		t.Fatalf("-restore without -checkpoint-dir exited %d, want 1", code)
	}
}
