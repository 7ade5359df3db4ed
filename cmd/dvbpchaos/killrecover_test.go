package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"dvbp/internal/core"
)

// buildChaos compiles the command once per test into a temp binary.
func buildChaos(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dvbpchaos")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// runChaos runs the built binary and returns stdout, stderr and the exit code.
func runChaos(t *testing.T, bin string, args ...string) (string, string, int) {
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

// resumeNotice matches the restore notice of a run that re-stepped its op
// log from event 0, the only way a persisted CLI run resumes.
var resumeNotice = regexp.MustCompile(`resumed at event (\d+) \(snapshot 0 \+ (\d+) replayed\)`)

// requireReplayedFromStart fails unless stderr reports a restore that
// re-stepped the run from event 0.
func requireReplayedFromStart(t *testing.T, stderr string) {
	t.Helper()
	m := resumeNotice.FindStringSubmatch(stderr)
	if m == nil || m[1] != m[2] {
		t.Fatalf("restore stderr lacks a from-the-start resume notice:\n%s", stderr)
	}
}

// TestKillAtAndRestore is the end-to-end crash torture at the process level:
// the faulty run is killed with a hard os.Exit at several event indices (no
// flush, no sync — a synthetic SIGKILL), then restored by re-stepping its op
// log, and the restored run's stdout (tables, JSON, metrics) must be
// byte-identical to an uninterrupted run with the same flags.
func TestKillAtAndRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	bin := buildChaos(t)
	base := append([]string{"-policy", "MoveToFront", "-json", "-metrics"}, chaosArgs...)

	wantOut, _, code := runChaos(t, bin, base...)
	if code != 0 {
		t.Fatalf("reference run exited %d", code)
	}

	// Persisting the run must not change the observable output.
	ckptRef := t.TempDir()
	out, _, code := runChaos(t, bin, append(append([]string{}, base...), "-checkpoint-dir", ckptRef)...)
	if code != 0 {
		t.Fatalf("checkpointed run exited %d", code)
	}
	if out != wantOut {
		t.Fatalf("checkpointed run output differs from plain run:\n--- plain ---\n%s\n--- checkpointed ---\n%s", wantOut, out)
	}

	for _, killAt := range []int64{0, 1, 17, 64, 150, 333} {
		dir := t.TempDir()
		args := append(append([]string{}, base...),
			"-checkpoint-dir", dir, "-kill-at", strconv.FormatInt(killAt, 10))
		_, stderr, code := runChaos(t, bin, args...)
		if code != 3 {
			t.Fatalf("kill-at %d: exit %d, want 3\nstderr: %s", killAt, code, stderr)
		}
		restore := append(append([]string{}, base...), "-checkpoint-dir", dir, "-restore")
		out, stderr, code := runChaos(t, bin, restore...)
		if code != 0 {
			t.Fatalf("restore after kill-at %d: exit %d\nstderr: %s", killAt, code, stderr)
		}
		if out != wantOut {
			t.Fatalf("restore after kill-at %d diverged:\n--- want ---\n%s\n--- got ---\n%s", killAt, wantOut, out)
		}
		requireReplayedFromStart(t, stderr)
	}
}

// TestSIGKILLAndRestore kills a real child process with SIGKILL mid-run and
// recovers. Unlike -kill-at the kill instant is not deterministic, so the
// assertion is recovery plus byte-identical final output, whatever was on disk.
func TestSIGKILLAndRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	bin := buildChaos(t)
	// A bigger instance so the run is still in flight when the signal lands.
	args := []string{"-policy", "MoveToFront", "-json",
		"-d", "2", "-n", "8000", "-mu", "8", "-T", "2000", "-B", "100", "-seed", "7",
		"-mtbf", "18", "-fault-seed", "4", "-retry", "backoff:0.5:4",
		"-max-servers", "40", "-queue-deadline", "3"}

	wantOut, _, code := runChaos(t, bin, args...)
	if code != 0 {
		t.Fatalf("reference run exited %d", code)
	}

	dir := t.TempDir()
	log := filepath.Join(dir, "ops.dvbp")
	cmd := exec.Command(bin, append(append([]string{}, args...), "-checkpoint-dir", dir)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as the op log has durably started growing past its meta
	// record; if the child outruns us and finishes, recovery of the complete
	// log is still exercised.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if fi, err := os.Stat(log); err == nil && fi.Size() > 256 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()

	out, stderr, code := runChaos(t, bin, append(append([]string{}, args...), "-checkpoint-dir", dir, "-restore")...)
	if code != 0 {
		t.Fatalf("restore after SIGKILL: exit %d\nstderr: %s", code, stderr)
	}
	if out != wantOut {
		t.Fatalf("restore after SIGKILL diverged:\n--- want ---\n%s\n--- got ---\n%s", wantOut, out)
	}
}

// TestKillAtAndRestoreFragPolicies extends the process-level crash torture to
// the fragmentation-aware family: each policy is killed mid-run (hard
// os.Exit, no flush) and restored, and the restored output must be
// byte-identical to its uninterrupted run.
func TestKillAtAndRestoreFragPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	bin := buildChaos(t)
	for _, policy := range core.FragmentationAwareNames() {
		base := append([]string{"-policy", policy, "-json", "-metrics"}, chaosArgs...)
		wantOut, _, code := runChaos(t, bin, base...)
		if code != 0 {
			t.Fatalf("%s: reference run exited %d", policy, code)
		}
		for _, killAt := range []int64{1, 97} {
			dir := t.TempDir()
			args := append(append([]string{}, base...),
				"-checkpoint-dir", dir, "-kill-at", strconv.FormatInt(killAt, 10))
			if _, stderr, code := runChaos(t, bin, args...); code != 3 {
				t.Fatalf("%s kill-at %d: exit %d, want 3\nstderr: %s", policy, killAt, code, stderr)
			}
			restore := append(append([]string{}, base...), "-checkpoint-dir", dir, "-restore")
			out, stderr, code := runChaos(t, bin, restore...)
			if code != 0 {
				t.Fatalf("%s restore after kill-at %d: exit %d\nstderr: %s", policy, killAt, code, stderr)
			}
			if out != wantOut {
				t.Fatalf("%s restore after kill-at %d diverged:\n--- want ---\n%s\n--- got ---\n%s", policy, killAt, wantOut, out)
			}
		}
	}
}
