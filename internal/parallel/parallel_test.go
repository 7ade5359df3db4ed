package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResults(t *testing.T) {
	got, err := MapShards(100, func(_ context.Context, i int) (int, error) { return i * i, nil }, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapZeroAndNegative(t *testing.T) {
	got, err := MapShards(0, func(_ context.Context, i int) (int, error) { return 0, nil }, RunOptions{})
	if err != nil || len(got) != 0 {
		t.Errorf("n=0: got %v, %v", got, err)
	}
	if _, err := MapShards(-1, func(_ context.Context, i int) (int, error) { return 0, nil }, RunOptions{}); err == nil {
		t.Error("n=-1: want error")
	}
}

func TestMapWorkerCounts(t *testing.T) {
	for _, w := range []int{0, 1, 2, 7, 64} {
		got, err := MapShards(50, func(_ context.Context, i int) (int, error) { return i, nil }, RunOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: got[%d]=%d", w, i, v)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int64 {
		out, err := MapShards(64, func(_ context.Context, i int) (int64, error) { return SeedFor(7, i), nil }, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d differs between worker counts", i)
		}
	}
}

func TestMapPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapShards(100, func(_ context.Context, i int) (int, error) {
		if i == 42 {
			return 0, boom
		}
		return i, nil
	}, RunOptions{Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestMapReturnsSmallestIndexError(t *testing.T) {
	// With one worker shards run in index order, so index 3 is guaranteed to
	// fail first and be the reported error.
	_, err := MapShards(100, func(_ context.Context, i int) (int, error) {
		if i%10 == 3 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	}, RunOptions{Workers: 1})
	if err == nil {
		t.Fatal("want error")
	}
	want := "parallel: shard 3: fail-3"
	if err.Error() != want {
		t.Fatalf("err = %q, want %q", err.Error(), want)
	}
}

func TestMapReportsSmallestObservedFailure(t *testing.T) {
	// Under concurrency the reported index is the smallest among the failures
	// that ran before cancellation — always one of the failing indices.
	_, err := MapShards(100, func(_ context.Context, i int) (int, error) {
		if i%10 == 3 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	}, RunOptions{Workers: 8})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "fail-") {
		t.Fatalf("err = %q, want a fail-N error", err)
	}
}

func TestMapCancellationStopsWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	_, err := MapShards(1_000_000, func(_ context.Context, i int) (int, error) {
		if calls.Add(1) == 10 {
			cancel()
		}
		return i, nil
	}, RunOptions{Workers: 2, Context: ctx})
	if err == nil {
		t.Fatal("cancelled run should error")
	}
	if calls.Load() > 100_000 {
		t.Errorf("cancellation did not stop work early (%d calls)", calls.Load())
	}
}

func TestSeedForProperties(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 10000; i++ {
		s := SeedFor(1, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if SeedFor(1, 0) == SeedFor(2, 0) {
		t.Error("different bases should give different seeds")
	}
	if SeedFor(1, 5) != SeedFor(1, 5) {
		t.Error("SeedFor must be pure")
	}
}

func BenchmarkMapOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MapShards(64, func(_ context.Context, j int) (int, error) { return j, nil }, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
