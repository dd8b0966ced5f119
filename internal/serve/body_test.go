package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"truthdiscovery/internal/datagen"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// refAnswersBody is the reference the hand-written encoder must match:
// encoding/json's Encoder with HTML escaping off, as the answers paths
// used before the encoder replaced it.
func refAnswersBody(v *View, answers []answerJSON) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(answersHeader{
		Version: v.Version, Method: v.Method, Day: v.Day, Label: v.Label,
		Count: len(answers), Answers: answers,
	})
	return buf.Bytes(), err
}

// checkAnswersBody encodes answers both ways: the bytes must be equal,
// or both encoders must fail.
func checkAnswersBody(t *testing.T, ctx string, v *View, answers []answerJSON) {
	t.Helper()
	got, gerr := answersBody(v, len(answers), func(k int) answerJSON { return answers[k] })
	want, werr := refAnswersBody(v, answers)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: encoder error %v, encoding/json error %v", ctx, gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder wrote\n%s\nencoding/json wrote\n%s", ctx, got, want)
	}
}

// getBody GETs path through the handler and returns the 200 body after
// checking its Content-Type and Content-Length.
func getBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type %q", path, ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("GET %s: Content-Length %q for a %d-byte body", path, cl, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

// wireOf converts view answers to their wire form.
func wireOf(v *View, idx []int32) []answerJSON {
	out := make([]answerJSON, len(idx))
	for k, i := range idx {
		out[k] = answerToJSON(&v.Answers[i])
	}
	return out
}

func allIndexes(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// edgeView is a hand-built view whose answers hit the encoder's escapes
// and float forms: every value kind, control bytes, invalid UTF-8,
// U+2028/U+2029, quotes and backslashes, -0, 1e-7, 1e21 and 5e-324.
func edgeView() *View {
	answers := []fusion.Answer{
		{ObjectKey: "plain", Attribute: "price", Value: value.NumGran(6651200, 1e5), Support: 3, Providers: 5},
		{ObjectKey: "plain", Attribute: "dep", Value: value.Minutes(615), Support: 1, Providers: 1},
		{ObjectKey: "plain", Attribute: "gate", Value: value.Value{Kind: value.Text, Text: "B\x00\x1f\b\f\n\r\t\x7f"}},
		{ObjectKey: "q\"uo\\te", Attribute: "gate", Value: value.Value{Kind: value.Text, Text: "\xff\xc3(\u2028\u2029<&>é"}},
		{ObjectKey: "floats", Attribute: "neg-zero", Value: value.Num(math.Copysign(0, -1))},
		{ObjectKey: "floats", Attribute: "tiny", Value: value.NumGran(1e-7, 1e-9), Support: -2},
		{ObjectKey: "floats", Attribute: "huge", Value: value.NumGran(1e21, 5e-324)},
		{ObjectKey: "floats", Attribute: "extremes", Value: value.NumGran(5e-324, math.MaxFloat64)},
		{ObjectKey: "", Attribute: "", Value: value.Value{Kind: 7, Num: -123.456e-12}},
	}
	return NewView(View{Version: 42, Method: "AccuFormat", Day: 3, Label: "d\"ay\n3", Answers: answers})
}

// stockView publishes a small Stock world, the shape the daily
// pipeline serves.
func stockView(t *testing.T) *View {
	t.Helper()
	cfg := datagen.DefaultStockConfig(5)
	cfg.Stocks = 40
	cfg.GoldSymbols = 20
	cfg.Days = 1
	gen := datagen.NewStock(cfg)
	ds := gen.Dataset()
	snap := gen.Snapshot(0)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(value.DefaultAlpha, snap)
	eng, err := NewEngine(ds, snap, nil, "AccuFormat", EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewRefresher(ds, eng, nil, nil, "stock", snap.Day, snap.Label, fusion.Options{}).Publish()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestAnswersBodyMatchesEncoder: the served table and every object's
// body are byte-identical to encoding/json's, on a Stock world and on
// the edge-case view, and carry their Content-Length.
func TestAnswersBodyMatchesEncoder(t *testing.T) {
	for name, v := range map[string]*View{"stock": stockView(t), "edge": edgeView()} {
		srv := NewServer()
		srv.Swap(v)
		h := srv.Handler()
		want, err := refAnswersBody(v, wireOf(v, allIndexes(len(v.Answers))))
		if err != nil {
			t.Fatal(err)
		}
		for read := 0; read < 2; read++ { // the render, then the stored body
			if got := getBody(t, h, "/v1/answers"); !bytes.Equal(got, want) {
				t.Fatalf("%s table read %d: served\n%s\nencoding/json wrote\n%s", name, read, got, want)
			}
		}
		objects := 0
		for key, idx := range v.byObject {
			want, err := refAnswersBody(v, wireOf(v, idx))
			if err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			req.SetPathValue("object", key)
			rec := httptest.NewRecorder()
			srv.handleObject(rec, req)
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s object %q: served\n%s\nencoding/json wrote\n%s", name, key, rec.Body.Bytes(), want)
			}
			objects++
		}
		if objects < 4 {
			t.Fatalf("%s: only %d objects checked", name, objects)
		}
	}
}

// FuzzAnswersBody compares the encoder with encoding/json on arbitrary
// strings, floats and ints, for an empty, a one- and a two-answer list
// (the second answer has no text and swapped floats). The committed
// corpus (testdata/fuzz/FuzzAnswersBody) covers control bytes, invalid
// UTF-8, U+2028/U+2029, quotes and backslashes, -0, 1e-7, 1e21,
// 5e-324, MaxFloat64, NaN/±Inf and empty text.
func FuzzAnswersBody(f *testing.F) {
	f.Add(uint64(7), 2, "AccuPr", "day2", "AAPL", "Last price", "6.7M", "number", 6651200.0, 1e5, "", 3, 5)
	f.Add(uint64(0), -1, "", "", "UA 101", "Departure gate", "B22", "text", 0.0, 0.0, "B22", 0, 1)
	f.Fuzz(func(t *testing.T, version uint64, day int, method, label, object, attribute, val, kind string,
		num, gran float64, text string, support, providers int) {
		v := &View{Version: version, Method: method, Day: day, Label: label}
		a := answerJSON{Object: object, Attribute: attribute, Value: val, Kind: kind,
			Num: num, Gran: gran, Text: text, Support: support, Providers: providers}
		b := a
		b.Num, b.Gran, b.Text = gran, num, ""
		checkAnswersBody(t, "empty", v, []answerJSON{})
		checkAnswersBody(t, "one", v, []answerJSON{a})
		checkAnswersBody(t, "two", v, []answerJSON{a, b})
	})
}

// TestStoredTableOneRender: concurrent first readers of a fresh view
// share one render, and every HTTP reader gets the same bytes.
func TestStoredTableOneRender(t *testing.T) {
	w := buildWorld(t)
	r, srv := newRefresher(t, w, "AccuPr", false)
	v, err := r.Publish()
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	const readers = 8
	start := make(chan struct{})
	bodies := make([][]byte, 2*readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			<-start
			bodies[g], _ = v.tableBody()
		}(g)
		go func(g int) {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/answers", nil))
			bodies[readers+g] = rec.Body.Bytes()
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 0; g < readers; g++ {
		if len(bodies[g]) == 0 || &bodies[g][0] != &bodies[0][0] {
			t.Fatalf("reader %d got a body from another render", g)
		}
		if !bytes.Equal(bodies[readers+g], bodies[0]) {
			t.Fatalf("HTTP reader %d got different bytes", g)
		}
	}
}

// TestStoredTableFollowsViews: the table follows every swap, and a copy
// of a served view passed through NewView serves its own version, not
// the body its source stored.
func TestStoredTableFollowsViews(t *testing.T) {
	w := buildWorld(t)
	r, srv := newRefresher(t, w, "AccuPr", false)
	v1, err := r.Publish()
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	version := func() wireAnswers {
		var got wireAnswers
		if err := json.Unmarshal(getBody(t, h, "/v1/answers"), &got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := version(); got.Version != 1 || got.Label != "day0" {
		t.Fatalf("first view: version %d label %s", got.Version, got.Label)
	}
	if _, _, err := r.Apply(w.delta); err != nil {
		t.Fatal(err)
	}
	got := version()
	if got.Version != 2 || got.Label != "day1" {
		t.Fatalf("after the swap: version %d label %s", got.Version, got.Label)
	}
	matchAnswers(t, "after the swap", got, expectedAnswers(t, w, "AccuPr", w.snaps[1]))

	next := *v1 // v1's body was rendered above
	next.Version = 99
	srv.Swap(NewView(next))
	if got := version(); got.Version != 99 || got.Label != "day0" {
		t.Fatalf("copied view: version %d label %s, want 99 day0", got.Version, got.Label)
	}
}

// discardWriter is a ResponseWriter that keeps nothing but a count, so
// a read's allocations are the handler's own.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestStoredTableHitAllocs: a read of a stored table allocates less
// than 1% of the body's bytes — a lookup plus a write, not an encode.
func TestStoredTableHitAllocs(t *testing.T) {
	answers := make([]fusion.Answer, 5000)
	for i := range answers {
		answers[i] = fusion.Answer{
			ObjectKey: fmt.Sprintf("obj%04d", i/10), Attribute: fmt.Sprintf("attr%d", i%10),
			Value: value.NumGran(float64(i)*1.25, 0.01), Support: 2, Providers: 3,
		}
	}
	srv := NewServer()
	srv.Swap(NewView(View{Version: 1, Method: "Vote", Answers: answers}))
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/answers", nil)
	dw := &discardWriter{h: http.Header{}}
	h.ServeHTTP(dw, req) // renders
	size := dw.n
	const reads = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		h.ServeHTTP(dw, req)
	}
	runtime.ReadMemStats(&after)
	if dw.n != (reads+1)*size {
		t.Fatalf("wrote %d bytes over %d reads of a %d-byte body", dw.n, reads+1, size)
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / reads; per >= 0.01*float64(size) {
		t.Fatalf("a stored-table read allocated %.0f bytes for a %d-byte body", per, size)
	}
}

// TestNotModifiedNeverRenders: revalidations answer 304 from the ETag
// alone; only a full GET renders the table.
func TestNotModifiedNeverRenders(t *testing.T) {
	w := buildWorld(t)
	r, srv := newRefresher(t, w, "Vote", false)
	v, err := r.Publish()
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/answers", nil)
		req.Header.Set("If-None-Match", v.ETag())
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified {
			t.Fatalf("revalidation: status %d, want 304", rec.Code)
		}
	}
	if v.table.body != nil || v.table.err != nil {
		t.Fatal("a 304 rendered the table")
	}
	body := getBody(t, h, "/v1/answers")
	if !bytes.Equal(v.table.body, body) {
		t.Fatal("the full GET did not store its body")
	}

	// HEAD reports the stored body's length.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodHead, "/v1/answers", nil))
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("HEAD Content-Length %q, want %d", cl, len(body))
	}
}

// TestNewHTTPServerTimeouts pins the listener settings: header and idle
// timeouts, and no read or write timeout that would cut off an awaited
// claim post.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := NewServer().Handler()
	hs := NewHTTPServer(h)
	if hs.Handler == nil {
		t.Fatal("no handler")
	}
	if hs.ReadHeaderTimeout <= 0 || hs.ReadHeaderTimeout > time.Minute {
		t.Fatalf("ReadHeaderTimeout %v, want a bound under a minute", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout %v, want a bound", hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout %v ReadTimeout %v, want none (awaited posts wait up to %v)",
			hs.WriteTimeout, hs.ReadTimeout, flushWaitTimeout)
	}
}

// TestRoutedEmptyFleetMatchesFlat: a fleet with no answers serves the
// same bytes as a flat server over the same empty view — a list, not
// null.
func TestRoutedEmptyFleetMatchesFlat(t *testing.T) {
	empty := func() *View { return NewView(View{Version: 7, Method: "Vote"}) }
	flat := NewServer()
	flat.Swap(empty())
	want := getBody(t, flat.Handler(), "/v1/answers")

	addrs := make([]string, 2)
	for w := range addrs {
		ts := httptest.NewServer(flat.Handler())
		defer ts.Close()
		addrs[w] = ts.URL
	}
	rt, err := NewRouter(model.NewDataset("empty"), model.RangeShards(2, 0), []int{0, 1, 2}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	rt.Server().Swap(empty())
	if got := getBody(t, rt.Handler(), "/v1/answers"); !bytes.Equal(got, want) {
		t.Fatalf("routed empty table\n%s\ndiffers from the flat one\n%s", got, want)
	}
	if !bytes.Contains(want, []byte(`"answers":[]`)) {
		t.Fatalf("empty table %s does not carry an empty list", want)
	}
}
