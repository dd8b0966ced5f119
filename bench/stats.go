package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Note says how the value was taken ("p99 of 24000").
	Note string
}

// pct returns the q-quantile of the samples by nearest rank.
func pct(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailQ is the highest of p90, p99 and p99.9 that keeps at least ten
// samples beyond it (p90 when even that does not).
func tailQ(n int) float64 {
	for _, q := range []float64{0.999, 0.99} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.9
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// procStats is the process's CPU time and Go runtime counters.
type procStats struct {
	cpu      time.Duration
	gcPause  time.Duration
	gcCycles uint32
	alloc    uint64
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcPause:  time.Duration(ms.PauseTotalNs),
		gcCycles: ms.NumGC,
		alloc:    ms.TotalAlloc,
	}
}

func (p procStats) sub(q procStats) procStats {
	return procStats{p.cpu - q.cpu, p.gcPause - q.gcPause, p.gcCycles - q.gcCycles, p.alloc - q.alloc}
}

// liveHeap collects garbage and returns the bytes still allocated. It
// collects twice: the first collection only moves sync.Pool contents to
// the pools' victim caches, which kept 8MB alive in some live-ingest runs
// and not in others.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
