package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file implements the shard scheduler underneath the experiment
// harness. A sweep is decomposed into n independent shards (indices 0..n-1);
// every worker claims the next unclaimed index from one shared atomic counter
// until the counter passes n. An idle worker simply takes the next index, so
// skewed shard costs balance themselves without any stealing.
//
// Determinism contract: the scheduler decides only *when and where* a shard
// runs, never what it computes. Shard functions receive their index, derive
// all randomness from it (see SeedFor and Derive), and results are collected
// by index — so the outcome is bit-identical for any worker count or
// completion order. The same holds for errors: the reported failure is the
// one with the smallest shard index among those that ran.

// PanicError wraps a panic that escaped a shard function. The scheduler
// converts panics into ordinary errors so one faulty shard cannot take down
// the whole process; Stack holds the goroutine stack captured at recovery.
type PanicError struct {
	// Shard is the index of the shard whose function panicked.
	Shard int
	// Value is the value passed to panic.
	Value any
	// Stack is the formatted stack trace captured by debug.Stack.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("shard %d panicked: %v", e.Shard, e.Value)
}

// RunOptions configures a run.
type RunOptions struct {
	// Workers is the number of concurrent workers; <= 0 means GOMAXPROCS.
	Workers int
	// Context cancels outstanding shards early; nil means Background. The
	// shard function receives a context derived from it that is additionally
	// cancelled as soon as any shard fails or panics.
	Context context.Context
}

func (o RunOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o RunOptions) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Run executes fn(ctx, i) for every i in [0, n) across a pool of workers
// that claim indices from one shared counter. It returns the first error by
// shard index, converting panics into *PanicError; on error (or
// parent-context cancellation) the shared context is cancelled so in-flight
// shards can bail out early and no further shard starts. See the package
// comment for the determinism contract.
func Run(n int, fn func(ctx context.Context, i int) error, opts RunOptions) error {
	if n < 0 {
		return fmt.Errorf("parallel: negative n %d", n)
	}
	workers := min(opts.workers(), n)

	ctx, cancel := context.WithCancel(opts.context())
	defer cancel()

	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		cancel()
	}
	runShard := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				record(i, &PanicError{Shard: i, Value: r, Stack: debug.Stack()})
			}
		}()
		if err := fn(ctx, i); err != nil {
			record(i, err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				runShard(i)
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return fmt.Errorf("parallel: shard %d: %w", firstIdx, firstErr)
	}
	return opts.context().Err()
}

// MapShards runs fn over [0, n) and returns the results in index order — Run
// plus index-ordered collection, so the output is bit-identical regardless of
// worker count or completion order.
func MapShards[T any](n int, fn func(ctx context.Context, i int) (T, error), opts RunOptions) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("parallel: negative n %d", n)
	}
	results := make([]T, n)
	err := Run(n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		results[i] = v
		return nil
	}, opts)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche over 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Derive folds labels into base with chained SplitMix64 steps, producing a
// decorrelated seed for a hierarchically-identified stream: a shard keyed by
// (cell, instance) uses Derive(root, cell, instance). Three properties the
// experiment harness relies on:
//
//   - Derive(base, i) == SeedFor(base, int(i)), so single-level derivations
//     are exactly the historical per-trial seeds;
//   - Derive(Derive(s, a), b) == Derive(s, a, b), so hierarchies may derive
//     level by level (cell seed first, then per-instance seeds from it);
//   - the chain is order-sensitive: Derive(s, a, b) != Derive(s, b, a).
//
// The mapping is stable across releases: experiment outputs keyed to a root
// seed stay reproducible.
func Derive(base int64, labels ...int64) int64 {
	z := uint64(base)
	for _, l := range labels {
		z = mix64(z + 0x9E3779B97F4A7C15*(uint64(l)+1))
	}
	return int64(z)
}
