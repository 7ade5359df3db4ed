package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunVisitsEveryShardExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		const n = 1000
		var visits [n]atomic.Int32
		err := Run(n, func(_ context.Context, i int) error {
			visits[i].Add(1)
			return nil
		}, RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, i, v)
			}
		}
	}
}

func TestRunSkewedShardCostsCompleteExactlyOnce(t *testing.T) {
	// Make the first quarter of the shards vastly more expensive than the
	// rest: while one worker is busy there, the others must keep claiming
	// the cheap indices. Timing is not observable, so assert completion and
	// exactly-once execution under skew (and -race).
	const n = 256
	var visits [n]atomic.Int32
	err := Run(n, func(_ context.Context, i int) error {
		if i < n/4 {
			for j := 0; j < 10_000; j++ {
				_ = math.Sqrt(float64(j))
			}
		}
		visits[i].Add(1)
		return nil
	}, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range visits {
		if visits[i].Load() != 1 {
			t.Fatalf("shard %d ran %d times", i, visits[i].Load())
		}
	}
}

func TestRunReportsSmallestFailingShard(t *testing.T) {
	// Two shards fail out of order: shard 40 fails first, once shard 3 is
	// running, and shard 3 fails only after the failure has cancelled its
	// context. The report must name shard 3 whatever the worker count.
	for _, workers := range []int{2, 4, 8} {
		started := make(chan struct{})
		err := Run(64, func(ctx context.Context, i int) error {
			switch i {
			case 3:
				close(started)
				<-ctx.Done()
				return fmt.Errorf("fail-%d", i)
			case 40:
				<-started
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		}, RunOptions{Workers: workers})
		if want := "parallel: shard 3: fail-3"; err == nil || err.Error() != want {
			t.Fatalf("workers=%d: err = %v, want %q", workers, err, want)
		}
	}
}

func TestMapShardsDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int64 {
		out, err := MapShards(512, func(_ context.Context, i int) (int64, error) {
			return Derive(99, int64(i), int64(i*i)), nil
		}, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 32} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: index %d differs", w, i)
			}
		}
	}
}

func TestRunCapturesPanics(t *testing.T) {
	err := Run(64, func(_ context.Context, i int) error {
		if i == 17 {
			panic("kaboom")
		}
		return nil
	}, RunOptions{Workers: 4})
	if err == nil {
		t.Fatal("want error from panicking shard")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Shard != 17 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = {Shard:%d Value:%v stackLen:%d}", pe.Shard, pe.Value, len(pe.Stack))
	}
}

func TestRunPanicDoesNotKillOtherShards(t *testing.T) {
	// A panic must cancel outstanding work and surface as an error — not crash
	// the process or deadlock the pool.
	var completed atomic.Int64
	err := Run(100, func(_ context.Context, i int) error {
		if i == 0 {
			panic("first shard dies")
		}
		completed.Add(1)
		return nil
	}, RunOptions{Workers: 2})
	if err == nil {
		t.Fatal("want error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	err := Run(1_000_000, func(_ context.Context, i int) error {
		if calls.Add(1) == 10 {
			cancel()
		}
		return nil
	}, RunOptions{Workers: 2, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() > 100_000 {
		t.Errorf("cancellation did not stop work early (%d calls)", calls.Load())
	}
}

func TestRunShardContextCancelledOnFailure(t *testing.T) {
	// The context handed to shard functions must be cancelled once any shard
	// fails, so long-running shards can bail out.
	boom := errors.New("boom")
	started := make(chan struct{})
	err := Run(2, func(ctx context.Context, i int) error {
		if i == 0 {
			<-started // wait until shard 1 is running
			return boom
		}
		close(started)
		<-ctx.Done() // must unblock when shard 0 fails
		return nil
	}, RunOptions{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestRunEdgeCases(t *testing.T) {
	if err := Run(0, func(context.Context, int) error { return nil }, RunOptions{}); err != nil {
		t.Errorf("n=0: %v", err)
	}
	if err := Run(-1, func(context.Context, int) error { return nil }, RunOptions{}); err == nil {
		t.Error("n=-1: want error")
	}
	// n=0 with a cancelled context surfaces the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Run(0, func(context.Context, int) error { return nil }, RunOptions{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("n=0 cancelled: err = %v", err)
	}
}

func TestDeriveProperties(t *testing.T) {
	// Pure and label-order sensitive.
	if Derive(1, 2, 3) != Derive(1, 2, 3) {
		t.Error("Derive must be pure")
	}
	if Derive(1, 2, 3) == Derive(1, 3, 2) {
		t.Error("Derive must be order-sensitive")
	}
	if Derive(1) == Derive(2) {
		t.Error("different bases must give different streams")
	}
	// No collisions across a realistic shard grid.
	seen := make(map[int64]bool)
	for cell := int64(0); cell < 20; cell++ {
		for inst := int64(0); inst < 500; inst++ {
			s := Derive(7, cell, inst)
			if seen[s] {
				t.Fatalf("collision at (%d, %d)", cell, inst)
			}
			seen[s] = true
		}
	}
	// Chaining one label at a time equals the variadic form, so hierarchies
	// can derive level by level.
	if Derive(Derive(5, 1), 2) != Derive(5, 1, 2) {
		t.Error("Derive must chain: Derive(Derive(s,a),b) == Derive(s,a,b)")
	}
}

func TestConcurrentRunsShareNothing(t *testing.T) {
	// Several independent Run invocations in flight at once: exercises the
	// scheduler's freedom from package-level state under -race.
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out, err := MapShards(200, func(_ context.Context, i int) (int64, error) {
				return Derive(int64(r), int64(i)), nil
			}, RunOptions{Workers: 3})
			if err != nil {
				t.Error(err)
				return
			}
			for i, v := range out {
				if v != Derive(int64(r), int64(i)) {
					t.Errorf("run %d index %d corrupted", r, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func BenchmarkRunOverhead(b *testing.B) {
	// Scheduling cost per shard with a no-op body.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Run(1024, func(context.Context, int) error { return nil }, RunOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
