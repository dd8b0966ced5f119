package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/store"
	"truthdiscovery/internal/value"
)

// armIngest publishes day 0 of the test world and wires an ingester with
// the given config over the refresher.
func armIngest(t *testing.T, method string, cfg IngestConfig) (*testWorld, *Ingester, *Server, *httptest.Server) {
	t.Helper()
	w := buildWorld(t)
	r, srv := newRefresher(t, w, method, false)
	if _, err := r.Publish(); err != nil {
		t.Fatal(err)
	}
	ing := NewIngester(w.ds, r, w.snaps[0], cfg)
	srv.SetIngester(ing)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return w, ing, srv, ts
}

func postClaims(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/claims", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestIngestFlushPublishes pushes a change, a retraction, and (after a
// second flush) a re-addition through POST /v1/claims, asserting after
// each flush that the served answers are bit-identical to a direct fuse
// of a hand-built snapshot carrying the same claim set, and that every
// flush bumps the version and rotates the ETag.
func TestIngestFlushPublishes(t *testing.T) {
	w, ing, srv, ts := armIngest(t, "AccuPr", IngestConfig{MaxBatch: 1 << 20})
	v1 := srv.View().Version

	// Batch 1: src0 reprices obj00 and src1's claims on obj01 and obj02
	// are retracted. Parsed values carry the granularity their printed
	// form implies ("99.5" → gran 0.1), so the expected claims below must
	// too.
	resp := postClaims(t, ts, `{"claims":[
		{"source":"src0","object":"obj00","attribute":"price","value":"99.5"},
		{"source":"src1","object":"obj01","attribute":"price","retract":true},
		{"source":"src1","object":"obj02","attribute":"price","retract":true}]}`)
	var accepted struct {
		Accepted int `json:"accepted"`
		Pending  int `json:"pending"`
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/claims: status %d, want 202", resp.StatusCode)
	}
	decodeBody(t, resp, &accepted)
	resp.Body.Close()
	if accepted.Accepted != 3 || accepted.Pending != 3 {
		t.Fatalf("accepted %+v, want 3/3", accepted)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}

	// The reference: the same claim set fused offline.
	mutate := func(claims []model.Claim, change func(c *model.Claim) bool, drop func(c *model.Claim) bool) []model.Claim {
		out := make([]model.Claim, 0, len(claims))
		for _, c := range claims {
			if drop != nil && drop(&c) {
				continue
			}
			if change != nil {
				change(&c)
			}
			out = append(out, c)
		}
		return out
	}
	item := func(obj int) model.ItemID { return w.snaps[0].ItemClaims(model.ItemID(obj))[0].Item }
	after1 := model.NewSnapshot(1, "live-1", len(w.ds.Items), mutate(w.snaps[0].Claims,
		func(c *model.Claim) bool {
			if c.Item == item(0) && c.Source == 0 {
				c.Val = value.NumGran(99.5, 0.1)
			}
			return true
		},
		func(c *model.Claim) bool {
			return (c.Item == item(1) || c.Item == item(2)) && c.Source == 1
		},
	))
	var got wireAnswers
	getJSON(t, ts, "/v1/answers", http.StatusOK, &got)
	matchAnswers(t, "after flush 1", got, expectedAnswers(t, w, "AccuPr", after1))
	if got.Version == v1 {
		t.Fatalf("flush did not bump the version from %d", v1)
	}
	if srv.View().ETag() == store.ETag(v1) {
		t.Fatal("flush did not rotate the ETag")
	}

	// Batch 2: src1 returns to obj01 with a new value — the Added path.
	resp = postClaims(t, ts, `{"claims":[
		{"source":"src1","object":"obj01","attribute":"price","value":"42.25"}]}`)
	resp.Body.Close()
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	after2claims := append(mutate(after1.Claims, nil, nil), model.Claim{
		Source: 1, Item: item(1), Val: value.NumGran(42.25, 0.01), CopiedFrom: model.NoSource,
	})
	after2 := model.NewSnapshot(2, "live-2", len(w.ds.Items), after2claims)
	getJSON(t, ts, "/v1/answers", http.StatusOK, &got)
	matchAnswers(t, "after flush 2", got, expectedAnswers(t, w, "AccuPr", after2))

	// Batch 3: re-asserting the identical value and retracting the
	// still-absent (src1, obj02) claim are both no-ops — the flush finds
	// an empty delta and publishes nothing, leaving version and ETag
	// untouched.
	vBefore := srv.View().Version
	resp = postClaims(t, ts, `{"claims":[
		{"source":"src1","object":"obj01","attribute":"price","value":"42.25"},
		{"source":"src1","object":"obj02","attribute":"price","retract":true}]}`)
	resp.Body.Close()
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := srv.View().Version; got != vBefore {
		t.Fatalf("pure-noop flush published version %d (was %d)", got, vBefore)
	}

	// Stats: the no-ops were counted and the empty delta was not a flush.
	var stats map[string]any
	getJSON(t, ts, "/v1/stats", http.StatusOK, &stats)
	ingStats, _ := stats["ingest"].(map[string]any)
	if ingStats == nil {
		t.Fatal("stats carry no ingest block")
	}
	if n, _ := ingStats["noops"].(float64); n != 2 {
		t.Fatalf("noops = %v, want 2", n)
	}
	if n, _ := ingStats["flushes"].(float64); n != 2 {
		t.Fatalf("flushes = %v, want 2", n)
	}
}

// TestIngestValidation: every malformed batch is rejected whole with a
// machine-readable 400 and nothing is enqueued.
func TestIngestValidation(t *testing.T) {
	_, ing, _, ts := armIngest(t, "Vote", IngestConfig{MaxBatch: 1 << 20})
	cases := []struct {
		body, code string
	}{
		{`not json`, "bad_json"},
		{`{"claims":[],"extra":1}`, "bad_json"},
		{`{"claims":[]}`, "empty_batch"},
		{`{"claims":[{"source":"nope","object":"obj00","attribute":"price","value":"1"}]}`, "unknown_source"},
		{`{"claims":[{"source":"src0","object":"nope","attribute":"price","value":"1"}]}`, "unknown_object"},
		{`{"claims":[{"source":"src0","object":"obj00","attribute":"nope","value":"1"}]}`, "unknown_attribute"},
		{`{"claims":[{"source":"src0","object":"obj00","attribute":"price","value":"not-a-number"}]}`, "bad_value"},
		{`{"claims":[
			{"source":"src0","object":"obj00","attribute":"price","value":"1"},
			{"source":"nope","object":"obj00","attribute":"price","value":"1"}]}`, "unknown_source"},
	}
	for _, tc := range cases {
		resp := postClaims(t, ts, tc.body)
		var env envelope
		decodeBody(t, resp, &env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != tc.code {
			t.Fatalf("body %q: status %d code %q, want 400 %q", tc.body, resp.StatusCode, env.Error.Code, tc.code)
		}
	}
	if got := ing.Stats()["pending"].(int); got != 0 {
		t.Fatalf("rejected batches enqueued %d ops", got)
	}
}

// TestIngestRejectsNonFinite: "NaN" and the infinities parse as floats
// but are no quantity, so ingest refuses them with 400 bad_value and
// leaves the pending set as it was; the flush that follows publishes the
// valid claim (a NaN that reached the engine used to panic the flush).
func TestIngestRejectsNonFinite(t *testing.T) {
	_, ing, srv, ts := armIngest(t, "AccuPr", IngestConfig{MaxBatch: 1 << 20})
	resp := postClaims(t, ts, `{"claims":[{"source":"src0","object":"obj00","attribute":"price","value":"99.5"}]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid claim: status %d, want 202", resp.StatusCode)
	}
	for _, raw := range []string{"NaN", "Inf", "-inf"} {
		resp := postClaims(t, ts, fmt.Sprintf(
			`{"claims":[{"source":"src1","object":"obj00","attribute":"price","value":%q}]}`, raw))
		var env envelope
		decodeBody(t, resp, &env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_value" {
			t.Fatalf("value %q: status %d code %q, want 400 bad_value", raw, resp.StatusCode, env.Error.Code)
		}
		if got := ing.Stats()["pending"].(int); got != 1 {
			t.Fatalf("value %q: pending %d, want the 1 valid claim", raw, got)
		}
	}
	v := srv.View().Version
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if srv.View().Version == v {
		t.Fatal("flush of the valid claim published no new version")
	}
}

// TestIngestBackpressure: a batch that would push the pending set past
// MaxPending is refused whole with 429 + Retry-After, leaving the
// pending set exactly as it was.
func TestIngestBackpressure(t *testing.T) {
	_, ing, _, ts := armIngest(t, "Vote", IngestConfig{MaxBatch: 1 << 20, MaxPending: 5})

	batch := func(n, off int) string {
		ops := make([]string, n)
		for i := range ops {
			ops[i] = fmt.Sprintf(`{"source":"src%d","object":"obj%02d","attribute":"price","value":"7"}`,
				(i+off)%5, (i+off)/5)
		}
		return `{"claims":[` + strings.Join(ops, ",") + `]}`
	}

	resp := postClaims(t, ts, batch(6, 0))
	var env envelope
	decodeBody(t, resp, &env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != "ingest_backlog" {
		t.Fatalf("oversized batch: status %d code %q, want 429 ingest_backlog", resp.StatusCode, env.Error.Code)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 carried no Retry-After")
	}
	if got := ing.Stats()["pending"].(int); got != 0 {
		t.Fatalf("refused batch left %d pending", got)
	}

	// 3 fit; 3 more would exceed 5 and are refused; the first 3 stay.
	resp = postClaims(t, ts, batch(3, 0))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch: status %d, want 202", resp.StatusCode)
	}
	resp = postClaims(t, ts, batch(3, 3))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflowing batch: status %d, want 429", resp.StatusCode)
	}
	if got := ing.Stats()["pending"].(int); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
}

// TestIngestLastWins: two ops on the same (item, source) key in one
// window coalesce to the later one.
func TestIngestLastWins(t *testing.T) {
	w, ing, srv, ts := armIngest(t, "Vote", IngestConfig{MaxBatch: 1 << 20})
	resp := postClaims(t, ts, `{"claims":[
		{"source":"src0","object":"obj00","attribute":"price","value":"1.0"},
		{"source":"src0","object":"obj00","attribute":"price","retract":true},
		{"source":"src0","object":"obj00","attribute":"price","value":"77.75"}]}`)
	var accepted struct {
		Pending int `json:"pending"`
	}
	decodeBody(t, resp, &accepted)
	resp.Body.Close()
	if accepted.Pending != 1 {
		t.Fatalf("pending = %d after three ops on one key, want 1", accepted.Pending)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	item := w.snaps[0].ItemClaims(0)[0].Item
	claims := ing.Base().ItemClaims(item)
	found := false
	for _, c := range claims {
		if c.Source == 0 {
			found = true
			if c.Val != value.NumGran(77.75, 0.01) {
				t.Fatalf("coalesced value %v, want 77.75", c.Val)
			}
		}
	}
	if !found {
		t.Fatal("coalesced claim missing from the flushed base")
	}
	if srv.View().Version != 2 {
		t.Fatalf("version %d, want 2", srv.View().Version)
	}
}

// TestIngestBackgroundFlush: the age-based flusher publishes without any
// explicit Flush call, and Close drains what is left.
func TestIngestBackgroundFlush(t *testing.T) {
	_, ing, srv, ts := armIngest(t, "Vote", IngestConfig{MaxBatch: 1 << 20, MaxAge: 20 * time.Millisecond})
	ing.Start()
	resp := postClaims(t, ts, `{"claims":[
		{"source":"src0","object":"obj03","attribute":"price","value":"55.5"}]}`)
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.View().Version < 2 {
		if time.Now().After(deadline) {
			t.Fatal("age-based flush never published")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Close stops accepting and flushes the remainder.
	resp = postClaims(t, ts, `{"claims":[
		{"source":"src1","object":"obj03","attribute":"price","value":"55.5"}]}`)
	resp.Body.Close()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ing.Stats()["pending"].(int); got != 0 {
		t.Fatalf("Close left %d pending", got)
	}
	resp = postClaims(t, ts, `{"claims":[
		{"source":"src2","object":"obj03","attribute":"price","value":"1"}]}`)
	var env envelope
	decodeBody(t, resp, &env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != "shutting_down" {
		t.Fatalf("post-Close enqueue: status %d code %q, want 503 shutting_down", resp.StatusCode, env.Error.Code)
	}
}

// TestIngestSharded runs one ingest flush through the sharded engine:
// the write path is engine-agnostic and the served answers equal a
// direct fuse of the same claims.
func TestIngestSharded(t *testing.T) {
	w := buildWorld(t)
	eng, err := NewEngine(w.ds, w.snaps[0], nil, "AccuPr", EngineOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	r := NewRefresher(w.ds, eng, srv, nil, "test-fp", 0, "day0", fusion.Options{})
	if _, err := r.Publish(); err != nil {
		t.Fatal(err)
	}
	ing := NewIngester(w.ds, r, w.snaps[0], IngestConfig{MaxBatch: 1 << 20})
	srv.SetIngester(ing)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postClaims(t, ts, `{"claims":[
		{"source":"src3","object":"obj29","attribute":"price","value":"3.25"}]}`)
	resp.Body.Close()
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	var got wireAnswers
	getJSON(t, ts, "/v1/answers", http.StatusOK, &got)
	matchAnswers(t, "sharded ingest", got, expectedAnswers(t, w, "AccuPr", ing.Base()))
}
