package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on are shared: the same fixed piece of
// CPU work takes anywhere from 1x to 1.5x as long from one minute to the
// next, and swings by a quarter within seconds. A calibrator measures that
// speed during the run: every 100ms it sorts the same 8,192 pseudo-random
// ints (64KB, resident in the core's own caches) and records the thread
// CPU time the sort took. The end-to-end timings are scaled by refSort
// over the run's median sort time, which reports them at the reference
// speed and takes the machine's drift out of run-to-run comparisons.
//
// The sorts run beside the system under test, because the drift is too
// fast to be caught by sorts taken only while the system is idle: with two
// idle samples, before set-up and after the phase, the spread of
// lowchurn-daily's advance p50 over eight seeds was 28%, against 9% raw
// and 4% sampled throughout. The system's load on the other core barely
// moves a sort whose data stays in its own core's caches;
// TestCalibrationIgnoresOtherCore bounds the effect.
type calibrator struct {
	stop    chan struct{}
	once    sync.Once
	done    sync.WaitGroup
	samples []time.Duration
}

const (
	calibPeriod = 100 * time.Millisecond
	// refSort is the sort's median thread CPU time on the reference
	// 2-core box (Xeon, 2.0GHz); a run at that speed is reported unscaled.
	refSort = 600 * time.Microsecond
)

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{})}
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		// Locked, so the thread CPU clock measures this goroutine alone.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(calibPeriod)
		defer t.Stop()
		for {
			c.samples = append(c.samples, sortTime())
			select {
			case <-c.stop:
				return
			case <-t.C:
			}
		}
	}()
	return c
}

// finish stops the calibrator and returns the median sort time. Later
// calls return the same median.
func (c *calibrator) finish() time.Duration {
	c.once.Do(func() { close(c.stop) })
	c.done.Wait()
	return pct(c.samples, 0.5)
}

// sortTime fills 8,192 ints from a fixed seed and returns the thread CPU
// time sorting them took. The caller locks its OS thread.
func sortTime() time.Duration {
	data := make([]int, 8192)
	rng := rand.New(rand.NewSource(1))
	for j := range data {
		data[j] = rng.Int()
	}
	start := threadCPU()
	sort.Ints(data)
	return threadCPU() - start
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	// clock_gettime cannot fail for this clock and a valid pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
