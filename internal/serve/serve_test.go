package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/store"
	"truthdiscovery/internal/value"
)

// testWorld is a small two-day stream built straight on the model layer.
type testWorld struct {
	ds    *model.Dataset
	snaps []*model.Snapshot
	delta *model.Delta
}

func buildWorld(t *testing.T) *testWorld {
	t.Helper()
	ds := model.NewDataset("serve-test")
	price := ds.AddAttr(model.Attribute{Name: "price", Kind: value.Number, Considered: true})
	var srcs []model.SourceID
	for i := 0; i < 5; i++ {
		srcs = append(srcs, ds.AddSource(model.Source{Name: fmt.Sprintf("src%d", i)}))
	}
	nObj := 30
	items := make([]model.ItemID, nObj)
	for i := 0; i < nObj; i++ {
		obj := ds.AddObject(model.Object{Key: fmt.Sprintf("obj%02d", i)})
		items[i] = ds.ItemFor(obj, price)
	}
	day := func(d int) *model.Snapshot {
		var claims []model.Claim
		for i, it := range items {
			for si, s := range srcs {
				v := 10.0 + float64(i)
				if d == 1 && i%4 == 0 {
					v += 2.5 // day-two reprice
				}
				if si == 4 && i%3 == 0 {
					v += 0.75 // one sloppy source
				}
				claims = append(claims, model.Claim{
					Source: s, Item: it, Val: value.Num(v), CopiedFrom: model.NoSource,
				})
			}
		}
		return model.NewSnapshot(d, fmt.Sprintf("day%d", d), len(ds.Items), claims)
	}
	s0, s1 := day(0), day(1)
	ds.AddSnapshot(s0)
	ds.AddSnapshot(s1)
	ds.ComputeTolerances(value.DefaultAlpha, s0, s1)
	dl, err := s0.Diff(s1)
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{ds: ds, snaps: []*model.Snapshot{s0, s1}, delta: dl}
}

// expectedAnswers fuses a snapshot directly — the reference every served
// payload must match bit for bit.
func expectedAnswers(t *testing.T, w *testWorld, method string, snap *model.Snapshot) []fusion.Answer {
	t.Helper()
	m, ok := fusion.ByName(method)
	if !ok {
		t.Fatalf("unknown method %s", method)
	}
	p := fusion.Build(w.ds, snap, nil, m.Needs())
	return fusion.AnswersFor(w.ds, p, m.Run(p, fusion.Options{}))
}

// wireAnswers is the decoded /answers payload.
type wireAnswers struct {
	Version uint64 `json:"version"`
	Method  string `json:"method"`
	Day     int    `json:"day"`
	Label   string `json:"label"`
	Count   int    `json:"count"`
	Answers []struct {
		Object    string  `json:"object"`
		Attribute string  `json:"attribute"`
		Value     string  `json:"value"`
		Kind      string  `json:"kind"`
		Num       float64 `json:"num"`
		Gran      float64 `json:"gran"`
		Text      string  `json:"text"`
		Support   int     `json:"support"`
		Providers int     `json:"providers"`
	} `json:"answers"`
}

func getJSON(t *testing.T, ts *httptest.Server, path string, wantStatus int, out any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
}

// matchAnswers asserts a served answer list is bit-identical to the
// reference: same order, same value bits, same provenance counts.
func matchAnswers(t *testing.T, ctx string, got wireAnswers, want []fusion.Answer) {
	t.Helper()
	if got.Count != len(want) || len(got.Answers) != len(want) {
		t.Fatalf("%s: %d answers, want %d", ctx, len(got.Answers), len(want))
	}
	for i, a := range got.Answers {
		w := want[i]
		if a.Object != w.ObjectKey || a.Attribute != w.Attribute ||
			a.Kind != w.Value.Kind.String() || a.Text != w.Value.Text ||
			math.Float64bits(a.Num) != math.Float64bits(w.Value.Num) ||
			math.Float64bits(a.Gran) != math.Float64bits(w.Value.Gran) ||
			a.Value != w.Value.String() ||
			a.Support != w.Support || a.Providers != w.Providers {
			t.Fatalf("%s: answer %d differs: %+v vs %+v", ctx, i, a, w)
		}
	}
}

func newRefresher(t *testing.T, w *testWorld, method string, withStore bool) (*Refresher, *Server) {
	t.Helper()
	eng, err := NewEngine(w.ds, w.snaps[0], nil, method, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var st *store.Store
	if withStore {
		if st, err = store.Open(t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer()
	return NewRefresher(w.ds, eng, srv, st, "test-fp", 0, "day0", fusion.Options{}), srv
}

// TestEndpoints drives every endpoint against a published day-0 run and
// checks the served answers bit-for-bit against a direct fuse.
func TestEndpoints(t *testing.T) {
	w := buildWorld(t)
	r, srv := newRefresher(t, w, "AccuPr", true)
	if _, err := r.Publish(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health struct {
		Status  string `json:"status"`
		Version uint64 `json:"version"`
	}
	getJSON(t, ts, "/v1/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Version != 1 {
		t.Fatalf("healthz: %+v", health)
	}

	var methods struct {
		Methods []string `json:"methods"`
		Serving string   `json:"serving"`
	}
	getJSON(t, ts, "/v1/methods", http.StatusOK, &methods)
	if len(methods.Methods) != 16 || methods.Serving != "AccuPr" {
		t.Fatalf("methods: %d listed, serving %q", len(methods.Methods), methods.Serving)
	}

	want := expectedAnswers(t, w, "AccuPr", w.snaps[0])
	var all wireAnswers
	getJSON(t, ts, "/v1/answers", http.StatusOK, &all)
	if all.Version != 1 || all.Method != "AccuPr" || all.Label != "day0" {
		t.Fatalf("answers header: %+v", all)
	}
	matchAnswers(t, "/v1/answers", all, want)

	var one wireAnswers
	getJSON(t, ts, "/v1/answers/obj07", http.StatusOK, &one)
	matchAnswers(t, "/v1/answers/obj07", one, want[7:8])
	getJSON(t, ts, "/v1/answers/no-such-object", http.StatusNotFound, nil)

	var trust struct {
		Version uint64 `json:"version"`
		Sources []struct {
			ID    int     `json:"id"`
			Name  string  `json:"name"`
			Trust float64 `json:"trust"`
		} `json:"sources"`
	}
	getJSON(t, ts, "/v1/trust", http.StatusOK, &trust)
	if len(trust.Sources) != 5 || trust.Sources[4].Name != "src4" {
		t.Fatalf("trust: %+v", trust)
	}
	_, res := r.Engine.Current(w.ds)
	for i, s := range trust.Sources {
		if math.Float64bits(s.Trust) != math.Float64bits(res.Trust[i]) {
			t.Fatalf("trust[%d]: %v vs %v", i, s.Trust, res.Trust[i])
		}
	}

	var stats struct {
		Version  uint64 `json:"version"`
		Items    int    `json:"items"`
		Sources  int    `json:"sources"`
		Requests uint64 `json:"requests"`
		Swaps    uint64 `json:"swaps"`
	}
	getJSON(t, ts, "/v1/stats", http.StatusOK, &stats)
	if stats.Version != 1 || stats.Items != 30 || stats.Sources != 5 || stats.Swaps != 1 || stats.Requests == 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestRefreshAdvancesAndPersists: applying the day delta swaps version 2
// in, serves the day-1 answers exactly, and both versions stay loadable
// from the store bit-identically.
func TestRefreshAdvancesAndPersists(t *testing.T) {
	w := buildWorld(t)
	r, srv := newRefresher(t, w, "AccuPr", true)
	if _, err := r.Publish(); err != nil {
		t.Fatal(err)
	}
	v2, stats, err := r.Apply(w.delta)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version != 2 || v2.Label != "day1" {
		t.Fatalf("applied view: version %d label %s", v2.Version, v2.Label)
	}
	if stats.TotalItems != 30 {
		t.Fatalf("stats: %+v", stats)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	want := expectedAnswers(t, w, "AccuPr", w.snaps[1])
	var all wireAnswers
	getJSON(t, ts, "/v1/answers", http.StatusOK, &all)
	if all.Version != 2 || all.Label != "day1" {
		t.Fatalf("served version %d label %s", all.Version, all.Label)
	}
	matchAnswers(t, "day1 /answers", all, want)

	// Replaying a delta that does not continue the stream is refused.
	if _, _, err := r.Apply(w.delta); err == nil {
		t.Fatal("Apply accepted a delta for the wrong base day")
	}

	// Both persisted versions load back and the current one matches the
	// served view.
	run1, err := r.Store.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if run1.Label != "day0" {
		t.Fatalf("run1 label %s", run1.Label)
	}
	cur, err := r.Store.LoadCurrent()
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != 2 || cur.Label != "day1" || len(cur.Answers) != len(want) {
		t.Fatalf("current run: %+v", cur)
	}
	for i := range want {
		if cur.Answers[i] != want[i] {
			t.Fatalf("persisted answer %d differs: %+v vs %+v", i, cur.Answers[i], want[i])
		}
	}
}

// TestResume serves a stored run without re-fusing and rejects one with a
// different fingerprint.
func TestResume(t *testing.T) {
	w := buildWorld(t)
	r, _ := newRefresher(t, w, "AccuPr", true)
	if _, err := r.Publish(); err != nil {
		t.Fatal(err)
	}
	run, err := r.Store.LoadCurrent()
	if err != nil {
		t.Fatal(err)
	}

	r2, srv2 := newRefresher(t, w, "AccuPr", false)
	if _, err := r2.Resume(run); err != nil {
		t.Fatal(err)
	}
	if v := srv2.View(); v == nil || v.Version != 1 || v.Label != "day0" {
		t.Fatalf("resumed view: %+v", v)
	}
	// The resumed stream continues where the run left off.
	if _, _, err := r2.Apply(w.delta); err != nil {
		t.Fatal(err)
	}

	badFP := *run
	badFP.Fingerprint = "some-other-config"
	r3, _ := newRefresher(t, w, "AccuPr", false)
	if _, err := r3.Resume(&badFP); err == nil {
		t.Fatal("Resume accepted a run with a mismatched fingerprint")
	}

	// A run from a different day than the engine reflects is refused —
	// resuming it would let the next Apply feed a mismatched delta to the
	// engine and break bit-identity silently.
	if _, _, err := r.Apply(w.delta); err != nil { // persist a day-1 run
		t.Fatal(err)
	}
	day1run, err := r.Store.LoadCurrent()
	if err != nil {
		t.Fatal(err)
	}
	r4, _ := newRefresher(t, w, "AccuPr", false) // engine at day 0
	if _, err := r4.Resume(day1run); err == nil {
		t.Fatal("Resume accepted a run from a day the engine does not reflect")
	}
}

// TestStoreOnlyRefresher: a nil engine serves a resumed run but refuses
// to publish or apply — the store-only warm-restart mode truthserved
// uses when no deltas are pending.
func TestStoreOnlyRefresher(t *testing.T) {
	w := buildWorld(t)
	r, _ := newRefresher(t, w, "AccuPr", true)
	if _, err := r.Publish(); err != nil {
		t.Fatal(err)
	}
	run, err := r.Store.LoadCurrent()
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer()
	ro := NewRefresher(w.ds, nil, srv, nil, "test-fp", run.Day, run.Label, fusion.Options{})
	if _, err := ro.Resume(run); err != nil {
		t.Fatal(err)
	}
	if v := srv.View(); v == nil || v.Version != 1 {
		t.Fatalf("store-only resume did not serve: %+v", v)
	}
	if _, err := ro.Publish(); err == nil {
		t.Fatal("store-only refresher published without an engine")
	}
	if _, _, err := ro.Apply(w.delta); err == nil {
		t.Fatal("store-only refresher applied a delta without an engine")
	}
}

// TestVoteHasNoTrust: trust-free methods serve an explicit null roster,
// not a fabricated vector.
func TestVoteHasNoTrust(t *testing.T) {
	w := buildWorld(t)
	r, srv := newRefresher(t, w, "Vote", false)
	if _, err := r.Publish(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var trust struct {
		Sources []json.RawMessage `json:"sources"`
	}
	getJSON(t, ts, "/v1/trust", http.StatusOK, &trust)
	if trust.Sources != nil {
		t.Fatalf("Vote served a trust vector: %v", trust.Sources)
	}
}

// TestEmptyServer: every data endpoint answers 503 until the first swap.
func TestEmptyServer(t *testing.T) {
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/healthz", "/v1/answers", "/v1/answers/x", "/v1/trust"} {
		getJSON(t, ts, path, http.StatusServiceUnavailable, nil)
	}
	getJSON(t, ts, "/v1/methods", http.StatusOK, nil) // static roster stays up
	getJSON(t, ts, "/v1/stats", http.StatusOK, nil)
}

// TestConcurrentReadersDuringSwap hammers the handler from many
// goroutines while the writer keeps swapping between the day-0 and day-1
// views. Every response must be one consistent world — the version
// determines the label and every answer — and -race must stay silent.
// This is the serving layer's core concurrency contract.
func TestConcurrentReadersDuringSwap(t *testing.T) {
	w := buildWorld(t)
	r, srv := newRefresher(t, w, "AccuPr", false)
	v0, err := r.Publish()
	if err != nil {
		t.Fatal(err)
	}
	v1, _, err := r.Apply(w.delta)
	if err != nil {
		t.Fatal(err)
	}
	wantByLabel := map[string][]fusion.Answer{
		"day0": expectedAnswers(t, w, "AccuPr", w.snaps[0]),
		"day1": expectedAnswers(t, w, "AccuPr", w.snaps[1]),
	}

	handler := srv.Handler()
	const readers, rounds = 8, 200
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			paths := []string{"/v1/answers", "/v1/answers/obj04", "/v1/trust", "/v1/healthz", "/v1/stats"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[i%len(paths)]
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet, path, nil)
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: GET %s: status %d", g, path, rec.Code)
					return
				}
				if path != "/v1/answers" && path != "/v1/answers/obj04" {
					continue
				}
				var got wireAnswers
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					errs <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				want, ok := wantByLabel[got.Label]
				if !ok {
					errs <- fmt.Errorf("reader %d: torn label %q", g, got.Label)
					return
				}
				if path == "/v1/answers/obj04" {
					want = want[4:5]
				}
				if len(got.Answers) != len(want) {
					errs <- fmt.Errorf("reader %d: %s: %d answers for %s, want %d",
						g, path, len(got.Answers), got.Label, len(want))
					return
				}
				for i, a := range got.Answers {
					if math.Float64bits(a.Num) != math.Float64bits(want[i].Value.Num) {
						errs <- fmt.Errorf("reader %d: %s: answer %d is not %s's value", g, path, i, got.Label)
						return
					}
				}
			}
		}(g)
	}
	// The writer flips between the two published worlds, re-stamping the
	// version so readers always see a fresh pointer.
	for i := 0; i < rounds; i++ {
		src := v0
		if i%2 == 0 {
			src = v1
		}
		next := *src
		next.Version = uint64(i + 3)
		srv.Swap(NewView(next))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestUnservableValueIs500: a fused NaN (a hostile claims file can parse
// one) cannot be represented in JSON; the endpoint must fail closed with
// a 500 error envelope, not return 200 with a torn body. The table is
// read twice: the second read answers from the stored render failure.
func TestUnservableValueIs500(t *testing.T) {
	srv := NewServer()
	srv.Swap(NewView(View{
		Method: "Vote",
		Answers: []fusion.Answer{{
			ObjectKey: "obj", Attribute: "price",
			Value: value.Num(math.NaN()),
		}},
	}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/answers", "/v1/answers", "/v1/answers/obj"} {
		wantEnvelope(t, ts, http.MethodGet, path, "", http.StatusInternalServerError, "internal")
	}
}
