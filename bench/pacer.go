package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Request is one scheduled operation of an open-loop stream.
type Request struct {
	// Route keys the latency samples ("read", "trust", "table", "routed", "write").
	Route  string
	Method string
	Path   string
	Body   []byte
	Header map[string]string
	// Done, when set, sees every response that arrived with status 200 or
	// 304, on the worker goroutine that sent it.
	Done func(status int, hdr http.Header, body []byte)
}

// Pacer drives one open-loop stream: request n is due at start + n/Rate,
// and every latency is measured from that due time until the body has been
// read. A stall therefore shows in every request queued behind it instead
// of silently lowering the offered load.
//
// Go timers fire about a millisecond late on small Linux boxes, which at
// thousands of requests per second is longer than the gap between sends.
// The pacer sleeps in nanosleep instead, so the generator stays within
// tens of microseconds of its schedule; Result.Late records how late it
// ran.
type Pacer struct {
	BaseURL string
	Rate    float64
	// Workers is the number of sending goroutines, each with at most one
	// connection in flight. It is capped at the number of CPUs.
	Workers int
	// Next builds request n. Workers call it concurrently with distinct n.
	Next func(n int) Request
	// Traced traces every other request: it sends span id IDBase+n+1 in
	// the span header and records the request in Result.Spans instead of
	// Result.Lat, so the two halves can be compared.
	Traced bool
	IDBase uint64
}

// Result is what one stream run measured.
type Result struct {
	// Lat holds latencies per route, due time to body read, for untraced
	// requests that answered 200 or 304.
	Lat map[string][]time.Duration
	// Late holds, for every request sent, how late the generator sent it:
	// send time minus the due time or, when the worker was still busy
	// with an earlier request at the due time, minus the moment it became
	// free. Waiting behind a busy connection is in the latency, not here.
	Late []time.Duration
	// Attempted counts requests that fell due; Failed those that ended in a
	// transport error or a status other than 200 or 304.
	Attempted, Failed int
	// Conditional counts requests sent with If-None-Match; NotModified
	// those answered 304.
	Conditional, NotModified int
	FirstFailure             string
	// Spans are the traced requests, keyed by span id.
	Spans map[uint64]clientSpan
}

// clientSpan is one traced request as the client saw it.
type clientSpan struct {
	Route string
	// Due and End are Unix nanoseconds: due time and body read.
	Due, End int64
	// Version is the response's ETag.
	Version string
	Bytes   int
}

func (c clientSpan) latency() time.Duration { return time.Duration(c.End - c.Due) }

// maxWorkers is the load generator's cap on goroutines and connections.
func maxWorkers() int { return runtime.NumCPU() }

// Run sends the stream for d and waits for every request to complete.
func (p *Pacer) Run(d time.Duration) *Result {
	workers := min(max(p.Workers, 1), maxWorkers())
	total := int(d.Seconds() * p.Rate)
	tr := &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}

	shards := make([]Result, workers)
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := range shards {
		wg.Add(1)
		go func(sh *Result) {
			defer wg.Done()
			sh.Lat = make(map[string][]time.Duration)
			sh.Spans = make(map[uint64]clientSpan)
			var body bytes.Buffer
			free := start
			for {
				n := int(next.Add(1)) - 1
				if n >= total {
					return
				}
				due := start.Add(time.Duration(float64(n) / p.Rate * float64(time.Second)))
				sleepUntil(due)
				ready := due
				if free.After(due) {
					ready = free
				}
				rq := p.Next(n)
				sh.Attempted++
				if rq.Header["If-None-Match"] != "" {
					sh.Conditional++
				}
				var id uint64
				if p.Traced && n%2 == 1 {
					id = p.IDBase + uint64(n) + 1
				}
				status, hdr, err := send(client, p.BaseURL, id, &rq, &body, ready, &sh.Late)
				done := time.Now()
				free = done
				if err == nil && status != http.StatusOK && status != http.StatusNotModified {
					err = fmt.Errorf("%s %s answered %d", rq.Method, rq.Path, status)
				}
				if err != nil {
					sh.Failed++
					if sh.FirstFailure == "" {
						sh.FirstFailure = err.Error()
					}
					continue
				}
				if status == http.StatusNotModified {
					sh.NotModified++
				}
				if id != 0 {
					sh.Spans[id] = clientSpan{Route: rq.Route, Due: due.UnixNano(), End: done.UnixNano(),
						Version: hdr.Get("ETag"), Bytes: body.Len()}
				} else {
					sh.Lat[rq.Route] = append(sh.Lat[rq.Route], done.Sub(due))
				}
				if rq.Done != nil {
					rq.Done(status, hdr, body.Bytes())
				}
				free = time.Now()
			}
		}(&shards[w])
	}
	wg.Wait()

	out := &Result{Lat: make(map[string][]time.Duration), Spans: make(map[uint64]clientSpan)}
	for i := range shards {
		out.merge(&shards[i])
	}
	return out
}

// merge folds b into r.
func (r *Result) merge(b *Result) {
	for route, l := range b.Lat {
		r.Lat[route] = append(r.Lat[route], l...)
	}
	r.Late = append(r.Late, b.Late...)
	r.Attempted += b.Attempted
	r.Failed += b.Failed
	r.Conditional += b.Conditional
	r.NotModified += b.NotModified
	if r.FirstFailure == "" {
		r.FirstFailure = b.FirstFailure
	}
	for id, s := range b.Spans {
		r.Spans[id] = s
	}
}

// send makes one request, reads its body into buf and appends the
// generator's lateness, send time minus ready, to late. A non-zero id
// goes out in the span header.
func send(client *http.Client, base string, id uint64, rq *Request, buf *bytes.Buffer, ready time.Time, late *[]time.Duration) (int, http.Header, error) {
	var body io.Reader
	if rq.Body != nil {
		body = bytes.NewReader(rq.Body)
	}
	req, err := http.NewRequest(rq.Method, base+rq.Path, body)
	if err != nil {
		*late = append(*late, time.Since(ready))
		return 0, nil, err
	}
	if rq.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range rq.Header {
		req.Header.Set(k, v)
	}
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	*late = append(*late, time.Since(ready))
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, err
}

// tracedLat returns the latencies of the traced requests on route.
func (r *Result) tracedLat(route string) []time.Duration {
	var out []time.Duration
	for _, c := range r.Spans {
		if c.Route == route {
			out = append(out, c.latency())
		}
	}
	return out
}

// sleepUntil blocks in nanosleep until t; the kernel honours it to within
// tens of microseconds. A Go timer for the bulk of the wait, finished in
// nanosleep, sent twice as many requests more than 0.5ms late when the
// system left a core idle.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an EINTR wake-up just loops
	}
}
