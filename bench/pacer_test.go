package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once must show the stall in the latency of every
// request queued behind it, not only in the stalled request's: latency is
// timed from the due time, so the generator cannot hide the queue
// (coordinated omission).
func TestPacerCountsQueuedStall(t *testing.T) {
	const stall = 50 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 50 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	p := &Pacer{BaseURL: srv.URL, Rate: 1000, Workers: 1,
		Next: func(int) Request { return Request{Route: "get", Method: http.MethodGet, Path: "/"} }}
	res := p.Run(300 * time.Millisecond)
	if res.Attempted != 300 || res.Failed != 0 {
		t.Fatalf("attempted %d, failed %d (%s); want 300 and 0", res.Attempted, res.Failed, res.FirstFailure)
	}
	lat := res.Lat["get"]
	if len(lat) != 300 {
		t.Fatalf("%d latencies, want 300", len(lat))
	}
	queued := 0
	for _, d := range lat {
		if d >= 10*time.Millisecond {
			queued++
		}
	}
	// At 1ms per request, the ~40 requests due during the stall's first
	// 40ms each wait at least 10ms.
	if queued < 30 {
		t.Errorf("%d requests took 10ms or more; the 50ms stall should delay about 40 queued behind it", queued)
	}
	if m := pct(lat, 1); m < stall {
		t.Errorf("max latency %v, below the %v stall", m, stall)
	}
	if late := pct(res.Late, 0.5); late > time.Millisecond {
		t.Errorf("generator lateness p50 %v; the nanosleep finish should keep it well under 1ms", late)
	}
}

// The pacer never runs more workers than CPUs.
func TestPacerCapsWorkers(t *testing.T) {
	var inFlight, peak atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1)
	}))
	defer srv.Close()
	p := &Pacer{BaseURL: srv.URL, Rate: 2000, Workers: 64,
		Next: func(int) Request { return Request{Route: "get", Method: http.MethodGet, Path: "/"} }}
	p.Run(100 * time.Millisecond)
	if got, max := peak.Load(), int64(maxWorkers()); got > max {
		t.Errorf("%d requests in flight at once, want at most %d", got, max)
	}
}
