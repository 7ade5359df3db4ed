package cli

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/faults"
	"dvbp/internal/metrics"
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

// TestRunPolicyCancelledRunResumes: a persisted faulty run whose context is
// cancelled, before its first event or mid-run, leaves a directory that
// survives power loss and restores, by re-stepping its op log from event 0,
// to the Result an uninterrupted simulation returns. A Manual-clock
// metrics collector attached to the restored run sees every event, so its
// metrics equal the uninterrupted run's too.
func TestRunPolicyCancelledRunResumes(t *testing.T) {
	l, err := workload.Uniform(workload.UniformConfig{D: 2, N: 200, Mu: 8, T: 150, B: 100}, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := func(col *metrics.Collector) []core.Option {
		return []core.Option{
			core.WithFaults(faults.MTBF{Mean: 30, Seed: 7}, faults.Fixed{Wait: 2.5}),
			core.WithMaxBins(6),
			core.WithAdmissionQueue(4),
			core.WithObserver(col),
		}
	}
	newCol := func() *metrics.Collector { return metrics.NewCollector(metrics.WithClock(&metrics.Manual{})) }
	metricsJSON := func(col *metrics.Collector) string {
		b, err := json.Marshal(col.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	wantCol := newCol()
	want, err := core.Simulate(l, core.NewMoveToFront(), opts(wantCol)...)
	if err != nil {
		t.Fatal(err)
	}
	if want.Crashes == 0 || want.Rejected+want.QueuedPlaced == 0 {
		t.Fatalf("reference run saw %d crashes and %d capped dispatches; the faults miss the run", want.Crashes, want.Rejected+want.QueuedPlaced)
	}
	wantMet := metricsJSON(wantCol)

	for _, cancelAt := range []int{1, 150} {
		mem := vfs.NewMem()
		rc := RunConfig{Tool: "test", Dir: "run", KillAt: -1, FS: mem, Seed: 5}
		ctx := &cancelAfter{Context: context.Background(), n: cancelAt}
		if _, err := RunPolicy(ctx, l, core.NewMoveToFront(), opts(newCol()), rc); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at %d: err = %v, want context.Canceled", cancelAt, err)
		}
		mem.CrashNow(vfs.CrashLost)
		mem.Restart()

		// Recovery rebuilds the policy from the run's meta, so the First Fit
		// passed here must not show in the result.
		rc.Restore = true
		col := newCol()
		got, err := RunPolicy(context.Background(), l, core.NewFirstFit(), opts(col), rc)
		if err != nil {
			t.Fatalf("cancel at %d: restore: %v", cancelAt, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cancel at %d: restored result differs from core.Simulate's\n got %v\nwant %v", cancelAt, got, want)
		}
		if got := metricsJSON(col); got != wantMet {
			t.Errorf("cancel at %d: restored run's metrics differ from the uninterrupted run's\n got %s\nwant %s", cancelAt, got, wantMet)
		}
	}
}
