package cli

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/vfs"
	"dvbp/internal/workload"
)

// cancelAfter is a context whose Err turns to Canceled at its n-th call.
// RunPolicy asks once per event, so the run stops after n−1 events.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestRunPolicyCancelledRunResumes: a persisted run whose context is
// cancelled, before its first event or mid-run, leaves a directory that
// survives power loss and restores to the Result an uninterrupted
// simulation returns.
func TestRunPolicyCancelledRunResumes(t *testing.T) {
	l, err := workload.Uniform(workload.UniformConfig{D: 2, N: 200, Mu: 8, T: 150, B: 100}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Simulate(l, core.NewMoveToFront())
	if err != nil {
		t.Fatal(err)
	}
	for _, cancelAt := range []int{1, 150} {
		mem := vfs.NewMem()
		rc := RunConfig{Tool: "test", Dir: "run", Every: 16, KillAt: -1, FS: mem, Seed: 5}
		ctx := &cancelAfter{Context: context.Background(), n: cancelAt}
		if _, err := RunPolicy(ctx, l, core.NewMoveToFront(), nil, rc); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at %d: err = %v, want context.Canceled", cancelAt, err)
		}
		mem.CrashNow(vfs.CrashLost)
		mem.Restart()

		// Recovery rebuilds the policy from the run's meta, so the First Fit
		// passed here must not show in the result.
		rc.Restore = true
		got, err := RunPolicy(context.Background(), l, core.NewFirstFit(), nil, rc)
		if err != nil {
			t.Fatalf("cancel at %d: restore: %v", cancelAt, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cancel at %d: restored result differs from core.Simulate's\n got %v\nwant %v", cancelAt, got, want)
		}
	}
}
