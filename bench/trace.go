package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
)

// spanHeader carries the client span id to the server so the handler span
// can name it as its parent.
const spanHeader = "X-Bench-Span"

// Span is one timed interval. Spans of one request or advance share Op;
// Parent is the span that caused this one (0 for a root). Start and End
// are nanoseconds since the tracer's epoch.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Note   string `json:"note,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration.
func (s *Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the benchmark writes them out. A nil
// *Tracer records nothing, so traced code runs untraced when handed nil.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// ID returns a fresh span id.
func (t *Tracer) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Since converts a wall time to the tracer's clock.
func (t *Tracer) Since(ts time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(ts.Sub(t.epoch))
}

// Add records a finished span.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Time runs fn as a span named name under parent.
func (t *Tracer) Time(name string, parent, op uint64, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	end := time.Now()
	t.Add(Span{ID: t.ID(), Parent: parent, Op: op, Name: name, Start: t.Since(start), End: t.Since(end)})
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func SelfTimes(spans []Span) map[uint64]time.Duration {
	kids := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.Dur() - time.Duration(covered)
	}
	return self
}

// SelfByName groups self times by span name.
func SelfByName(spans []Span) map[string][]time.Duration {
	self := SelfTimes(spans)
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], self[s.ID])
	}
	return out
}

// WriteTrace writes the spans as JSON.
func WriteTrace(path string, spans []Span) error {
	data, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedHandler times requests through h as spans named name while a
// tracer is installed in tr: requests that carry the span header, whose
// value becomes the span's parent, or every request when all is set (the
// router's own requests to its workers carry no header).
func tracedHandler(tr *atomic.Pointer[Tracer], name string, all bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr.Load()
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if t == nil || (parent == 0 && !all) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.Add(Span{ID: t.ID(), Parent: parent, Op: parent, Name: name, Note: r.URL.Path,
			Start: t.Since(start), End: t.Since(end)})
	})
}

// flushRecord is one ingest flush as the timing applier saw it.
type flushRecord struct {
	ETag string
	Dur  time.Duration
	Ops  int
}

// timedApplier wraps the ingester's applier and, while a tracer is
// installed, records each flush's Apply as an "ingest.apply" span.
type timedApplier struct {
	inner serve.Applier
	tr    *atomic.Pointer[Tracer]

	mu      sync.Mutex
	flushes []flushRecord
	// onView sees every published view (the benchmark's view ring).
	onView func(*serve.View)
}

func (a *timedApplier) Apply(dl *model.Delta) (*serve.View, fusion.IncrementalStats, error) {
	t := a.tr.Load()
	start := time.Now()
	v, st, err := a.inner.Apply(dl)
	end := time.Now()
	if err == nil && a.onView != nil {
		a.onView(v)
	}
	if t != nil && err == nil {
		t.Add(Span{ID: t.ID(), Name: "ingest.apply", Note: v.ETag(), Start: t.Since(start), End: t.Since(end)})
		a.mu.Lock()
		a.flushes = append(a.flushes, flushRecord{ETag: v.ETag(), Dur: end.Sub(start), Ops: dl.Size()})
		a.mu.Unlock()
	}
	return v, st, err
}

// takeFlushes returns and clears the recorded flushes.
func (a *timedApplier) takeFlushes() []flushRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	f := a.flushes
	a.flushes = nil
	return f
}
