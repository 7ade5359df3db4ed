package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The gated CPU-time metrics (setup_s and sim_cpu_us_per_place) are scaled
// to a fixed machine speed. On a shared host the CPU time of fixed work
// follows what the neighbours run on the same cores and caches: a loop of
// three engine simulations moved by ±15% over two minutes, and a Figure 4
// sweep's CPU time per placement by half between runs three minutes apart.
// A fixed reference kernel, a sort, timed beside that loop slowed nearly in
// step: the loop ÷ sort ratio held within ±4% over the same two minutes. So
// the CPU time of a measured stretch is multiplied by (refNominal ÷ the
// sort's CPU time read beside it) to the power refElasticity: the result is
// the CPU time the work would take on a machine where the sort takes
// refNominal. The kernel is the benchmark's own fixed code, so only the
// program moves the scaled figures.
const (
	// refLen ints are sorted by one run of the reference kernel.
	refLen = 1 << 17
	// refRuns runs per thread make one reading; it is their median.
	refRuns = 3
	// refNominal is the kernel's CPU time on the machine the scaled metrics
	// are expressed for: about what it takes on the 2-vCPU VM README.md
	// describes, so scaled figures read close to unscaled ones there.
	refNominal = 15 * time.Millisecond
	// refElasticity is how much faster than the kernel's the measured work's
	// CPU time grows as the host gets busier, in log terms. When the host
	// went from busy to quiet, the kernel's CPU time fell from about 16 ms
	// to 10.5 ms, and, by this ratio of log changes, the engine loop's by
	// 1.24, sim-paper's sweeps and set-ups by 1.48 and 1.50 and
	// serve-place's set-ups by 1.56. With a power of 1 the scaled figures
	// still moved by 9-26% across that change; with 1.5, by at most 11%.
	refElasticity = 1.5
)

// refBufs are the kernel's buffers, one per thread. They are mapped outside
// the Go heap and kept for the whole run: a reading neither allocates nor
// grows the heap the collector paces, so it adds the same megabyte of RSS
// per thread to every run and nothing else.
var refBufs [][]int64

// refBuf returns thread t's buffer, mapping it on first use.
func refBuf(t int) ([]int64, error) {
	for len(refBufs) <= t {
		mem, err := syscall.Mmap(-1, 0, refLen*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			return nil, fmt.Errorf("mapping the reference kernel's buffer: %w", err)
		}
		refBufs = append(refBufs, unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), refLen))
	}
	return refBufs[t], nil
}

// refRun runs the kernel once on buf: it fills buf with the same
// pseudo-random input every time, from a fixed LCG, and returns the calling
// thread's CPU time for sorting it. The caller is locked to its thread.
func refRun(buf []int64) time.Duration {
	x := uint64(1)
	for i := range buf {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = int64(x >> 16)
	}
	begin := threadCPU()
	slices.Sort(buf)
	return threadCPU() - begin
}

// refReading runs the kernel on threads threads at once, refRuns times
// each, and returns the median CPU time of one run. The measured work runs
// on as many threads, so the reading shares the cores the way it does.
func refReading(threads int) (time.Duration, error) {
	bufs := make([][]int64, threads)
	for t := range bufs {
		var err error
		if bufs[t], err = refBuf(t); err != nil {
			return 0, err
		}
	}
	times := make([]time.Duration, threads*refRuns)
	var wg sync.WaitGroup
	for t := range bufs {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for k := 0; k < refRuns; k++ {
				times[t*refRuns+k] = refRun(bufs[t])
			}
		}(t)
	}
	wg.Wait()
	slices.Sort(times)
	return times[len(times)/2], nil
}

// atRefSpeed scales a CPU time measured beside the reading ref to the
// reference machine, in seconds.
func atRefSpeed(cpu, ref time.Duration) float64 {
	return cpu.Seconds() * math.Pow(refNominal.Seconds()/ref.Seconds(), refElasticity)
}

// threadCPU returns the CPU time of the calling thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
