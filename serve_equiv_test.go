package truthdiscovery

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"truthdiscovery/internal/datagen"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
	"truthdiscovery/internal/store"
	"truthdiscovery/internal/value"
)

// The serving layer's acceptance contract (ISSUE 5): served answers are
// bit-identical to direct Fuse output for every exercised method,
// including across a persist/load cycle and across an incremental
// refresh swap performed under concurrent reads. CI runs this file under
// -race.

// serveEquivMethods samples the roster across families: item-local,
// web-link, IR, Bayesian, per-attribute.
var serveEquivMethods = []string{"Vote", "Cosine", "TruthFinder", "AccuPr", "AccuFormatAttr"}

// wireAnswer is the decoded /answers element.
type wireAnswer struct {
	Object    string  `json:"object"`
	Attribute string  `json:"attribute"`
	Value     string  `json:"value"`
	Kind      string  `json:"kind"`
	Num       float64 `json:"num"`
	Gran      float64 `json:"gran"`
	Text      string  `json:"text"`
	Support   int     `json:"support"`
	Providers int     `json:"providers"`
}

type wirePayload struct {
	Version uint64       `json:"version"`
	Label   string       `json:"label"`
	Count   int          `json:"count"`
	Answers []wireAnswer `json:"answers"`
}

// sameWireAnswers demands the served payload equal the reference answers
// to the last bit: the float fields must round-trip through JSON to
// identical IEEE bits, not merely print alike.
func sameWireAnswers(t *testing.T, ctx string, got []wireAnswer, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.Object != w.ObjectKey || g.Attribute != w.Attribute ||
			g.Kind != w.Value.Kind.String() || g.Text != w.Value.Text ||
			math.Float64bits(g.Num) != math.Float64bits(w.Value.Num) ||
			math.Float64bits(g.Gran) != math.Float64bits(w.Value.Gran) ||
			g.Value != w.Value.String() ||
			g.Support != w.Support || g.Providers != w.Providers {
			t.Fatalf("%s: answer %d differs: %+v vs %+v", ctx, i, *g, *w)
		}
	}
}

// claimList collects a snapshot's claims in (item, source) order.
func claimList(s *model.Snapshot) []model.Claim {
	out := make([]model.Claim, 0, s.NumClaims())
	for _, c := range s.Claims {
		out = append(out, c)
	}
	return out
}

func sameFloatsBits(t *testing.T, ctx string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) || (a == nil) != (b == nil) {
		t.Fatalf("%s: length %d vs %d", ctx, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v != %v", ctx, i, a[i], b[i])
		}
	}
}

// TestServedBitIdenticalToFuse asserts, per method on the calibrated
// Stock world: persist → load → serve returns answers, trust and
// posteriors bit-identical to a direct Fuse of the same snapshot.
func TestServedBitIdenticalToFuse(t *testing.T) {
	w := equivWorlds(t)[0] // Stock
	for _, method := range serveEquivMethods {
		// The reference: a direct public Fuse plus the raw result for
		// trust and posteriors.
		want, err := Fuse(w.ds, w.snap, method, FuseOptions{Sources: w.fused})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := fusion.ByName(method)
		wantRes := m.Run(fusion.Build(w.ds, w.snap, w.fused, m.Needs()), fusion.Options{})

		// The serving path: engine → store → load → view → HTTP.
		eng, err := serve.NewEngine(w.ds, w.snap, w.fused, method, serve.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.NewServer()
		fp := FuseOptions{Sources: w.fused}.Fingerprint(method)
		r := serve.NewRefresher(w.ds, eng, srv, st, fp, w.snap.Day, w.snap.Label, fusion.Options{})
		if _, err := r.Publish(); err != nil {
			t.Fatal(err)
		}

		// The persisted run is bit-identical to the direct result.
		run, err := st.LoadCurrent()
		if err != nil {
			t.Fatal(err)
		}
		if len(run.Answers) != len(want) {
			t.Fatalf("%s: stored %d answers, want %d", method, len(run.Answers), len(want))
		}
		for i := range want {
			if run.Answers[i] != want[i] {
				t.Fatalf("%s: stored answer %d differs: %+v vs %+v", method, i, run.Answers[i], want[i])
			}
		}
		sameFloatsBits(t, method+" trust", run.Trust, wantRes.Trust)
		if len(run.Posteriors) != len(wantRes.Posteriors) {
			t.Fatalf("%s: %d posterior rows, want %d", method, len(run.Posteriors), len(wantRes.Posteriors))
		}
		for i := range wantRes.Posteriors {
			sameFloatsBits(t, fmt.Sprintf("%s posteriors[%d]", method, i), run.Posteriors[i], wantRes.Posteriors[i])
		}

		// Serving the loaded run over HTTP returns the same bits — the
		// full persist → load → serve cycle, not just the in-memory view.
		loaded := serve.NewServer()
		loaded.Swap(serve.FromRun(run))
		ts := httptest.NewServer(loaded.Handler())
		var got wirePayload
		resp, err := ts.Client().Get(ts.URL + "/v1/answers")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		sameWireAnswers(t, method+" /answers", got.Answers, want)
	}
}

// TestServedShardedBitIdentical runs the same contract through the
// sharded engine (4 shards): the serving layer's store and wire formats
// are engine-agnostic.
func TestServedShardedBitIdentical(t *testing.T) {
	w := equivWorlds(t)[0]
	method := "AccuPr"
	want, err := Fuse(w.ds, w.snap, method, FuseOptions{Sources: w.fused})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngine(w.ds, w.snap, w.fused, method, serve.EngineOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := serve.NewRefresher(w.ds, eng, serve.NewServer(), st,
		FuseOptions{Sources: w.fused}.Fingerprint(method), w.snap.Day, w.snap.Label, fusion.Options{})
	if _, err := r.Publish(); err != nil {
		t.Fatal(err)
	}
	run, err := st.LoadCurrent()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if run.Answers[i] != want[i] {
			t.Fatalf("sharded stored answer %d differs: %+v vs %+v", i, run.Answers[i], want[i])
		}
	}
}

// TestIngestRoundTripBitIdentical is the live-write acceptance contract
// (ISSUE 6): claims POSTed to /v1/claims — by concurrent posters on
// disjoint (item, source) keys — flow through the batching ingester and
// the incremental engine, and the answers served afterwards are
// bit-identical to a direct public Fuse over a hand-built snapshot
// carrying the same claim set. Exercised on both the flat and the
// sharded engine; CI runs it under -race.
func TestIngestRoundTripBitIdentical(t *testing.T) {
	engines := []struct {
		name string
		opts serve.EngineOptions
	}{
		{"flat", serve.EngineOptions{}},
		{"sharded", serve.EngineOptions{Shards: 4}},
	}
	for _, ec := range engines {
		t.Run(ec.name, func(t *testing.T) {
			w := equivWorlds(t)[0] // Stock: every attribute is Number-kind
			method := "AccuPr"

			// Sample every 7th claim as a mutation target: new textual
			// values whose parsed form ("<n>.25" → gran 0.01) we can
			// mirror exactly in the expected snapshot.
			type mutation struct {
				claimIdx int
				op       serve.ClaimOp
				val      value.Value
			}
			var muts []mutation
			claims := claimList(w.snap)
			for ci := 0; ci < len(claims) && len(muts) < 210; ci += 7 {
				c := &claims[ci]
				it := w.ds.Items[c.Item]
				num := float64(10 + len(muts)%90)
				muts = append(muts, mutation{
					claimIdx: ci,
					op: serve.ClaimOp{
						Source:    w.ds.Sources[c.Source].Name,
						Object:    w.ds.Objects[it.Object].Key,
						Attribute: w.ds.Attrs[it.Attr].Name,
						Value:     fmt.Sprintf("%.2f", num+0.25),
					},
					val: value.NumGran(num+0.25, 0.01),
				})
			}
			if len(muts) < 100 {
				t.Fatalf("only %d mutation targets", len(muts))
			}

			// The reference: the same claim set (a copy), hand-applied and
			// fused offline through the public API.
			for _, m := range muts {
				claims[m.claimIdx].Val = m.val
				claims[m.claimIdx].Cause = model.CauseNone
				claims[m.claimIdx].CopiedFrom = model.NoSource
			}
			expected := model.NewSnapshot(w.snap.Day+1, fmt.Sprintf("live-%d", w.snap.Day+1),
				w.snap.NumItems(), claims)
			want, err := Fuse(w.ds, expected, method, FuseOptions{Sources: w.fused})
			if err != nil {
				t.Fatal(err)
			}

			// The live path: engine → refresher → ingester → HTTP.
			eng, err := serve.NewEngine(w.ds, w.snap, w.fused, method, ec.opts)
			if err != nil {
				t.Fatal(err)
			}
			srv := serve.NewServer()
			r := serve.NewRefresher(w.ds, eng, srv, nil,
				FuseOptions{Sources: w.fused}.Fingerprint(method), w.snap.Day, w.snap.Label, fusion.Options{})
			if _, err := r.Publish(); err != nil {
				t.Fatal(err)
			}
			ing := serve.NewIngester(w.ds, r, w.snap, serve.IngestConfig{MaxBatch: 1 << 20})
			srv.SetIngester(ing)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			// Concurrent posters: each owns a disjoint stripe of the
			// mutations and posts it in small batches.
			const posters = 4
			var wg sync.WaitGroup
			errs := make(chan error, posters)
			for p := 0; p < posters; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for lo := p; lo < len(muts); lo += posters * 16 {
						var ops []serve.ClaimOp
						for n := lo; n < len(muts) && len(ops) < 16; n += posters {
							ops = append(ops, muts[n].op)
						}
						body, err := json.Marshal(map[string]any{"claims": ops})
						if err != nil {
							errs <- err
							return
						}
						resp, err := ts.Client().Post(ts.URL+"/v1/claims", "application/json",
							bytes.NewReader(body))
						if err != nil {
							errs <- err
							return
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusAccepted {
							errs <- fmt.Errorf("poster %d: status %d", p, resp.StatusCode)
							return
						}
					}
				}(p)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := ing.Flush(); err != nil {
				t.Fatal(err)
			}

			// The ingester's base snapshot is exactly the hand-built one.
			if got, wantD := ing.Base().Digest(), expected.Digest(); got != wantD {
				t.Fatalf("ingested claim set diverged: digest %s, want %s", got, wantD)
			}

			// And the served answers are the offline fuse, to the bit.
			resp, err := ts.Client().Get(ts.URL + "/v1/answers")
			if err != nil {
				t.Fatal(err)
			}
			var got wirePayload
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if got.Version != 2 {
				t.Fatalf("served version %d after one flush, want 2", got.Version)
			}
			sameWireAnswers(t, ec.name+" ingested /v1/answers", got.Answers, want)
		})
	}
}

// TestServedRefreshUnderConcurrentReads builds a three-day calibrated
// Stock stream, serves day 0, and applies each day's delta while reader
// goroutines hammer the API. Every observed payload must be exactly one
// day's direct-Fuse answer set — no torn reads, no stale-mixed state —
// and the -race run proves the swap needs no locks.
func TestServedRefreshUnderConcurrentReads(t *testing.T) {
	cfg := datagen.DefaultStockConfig(5)
	cfg.Stocks = 60
	cfg.GoldSymbols = 30
	cfg.Days = 3
	gen := datagen.NewStock(cfg)
	ds := gen.Dataset()
	snaps := make([]*model.Snapshot, cfg.Days)
	for d := range snaps {
		snaps[d] = gen.Snapshot(d)
		ds.AddSnapshot(snaps[d])
	}
	ds.ComputeTolerances(value.DefaultAlpha, snaps...)
	deltas := make([]*Delta, 0, cfg.Days-1)
	for d := 1; d < cfg.Days; d++ {
		dl, err := snaps[d-1].Diff(snaps[d])
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, dl)
	}

	method := "AccuPr"
	wantByLabel := make(map[string][]Answer, cfg.Days)
	for _, snap := range snaps {
		want, err := Fuse(ds, snap, method, FuseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantByLabel[snap.Label] = want
	}

	eng, err := serve.NewEngine(ds, snaps[0], nil, method, serve.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer()
	r := serve.NewRefresher(ds, eng, srv, st, FuseOptions{}.Fingerprint(method),
		snaps[0].Day, snaps[0].Label, fusion.Options{})
	if _, err := r.Publish(); err != nil {
		t.Fatal(err)
	}

	handler := srv.Handler()
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/answers", nil))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: status %d", g, rec.Code)
					return
				}
				var got wirePayload
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					errs <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				want, ok := wantByLabel[got.Label]
				if !ok {
					errs <- fmt.Errorf("reader %d: unknown served label %q", g, got.Label)
					return
				}
				if got.Count != len(want) || len(got.Answers) != len(want) {
					errs <- fmt.Errorf("reader %d: %d answers for %s, want %d", g, len(got.Answers), got.Label, len(want))
					return
				}
				for i := range want {
					a, w := &got.Answers[i], &want[i]
					if a.Object != w.ObjectKey || a.Attribute != w.Attribute ||
						math.Float64bits(a.Num) != math.Float64bits(w.Value.Num) ||
						a.Support != w.Support {
						errs <- fmt.Errorf("reader %d: %s answer %d is not the direct-Fuse value: %+v vs %+v",
							g, got.Label, i, *a, *w)
						return
					}
				}
			}
		}(g)
	}

	// The refresh loop: each day's delta advances the engine, persists
	// and swaps, while the readers above keep reading.
	for _, dl := range deltas {
		v, _, err := r.Apply(dl)
		if err != nil {
			t.Fatal(err)
		}
		// The freshly served view equals the direct fuse of its day.
		want := wantByLabel[v.Label]
		if len(v.Answers) != len(want) {
			t.Fatalf("swapped view has %d answers, want %d", len(v.Answers), len(want))
		}
		for i := range want {
			if v.Answers[i] != want[i] {
				t.Fatalf("swapped %s answer %d differs: %+v vs %+v", v.Label, i, v.Answers[i], want[i])
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the stream: three persisted versions, current = final day,
	// and a cold restart resumes it without re-fusing.
	versions, err := st.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != cfg.Days {
		t.Fatalf("store holds %d versions, want %d", len(versions), cfg.Days)
	}
	run, err := st.LoadCurrent()
	if err != nil {
		t.Fatal(err)
	}
	finalWant := wantByLabel[snaps[cfg.Days-1].Label]
	if run.Label != snaps[cfg.Days-1].Label || len(run.Answers) != len(finalWant) {
		t.Fatalf("current run: label %s, %d answers", run.Label, len(run.Answers))
	}
	for i := range finalWant {
		if run.Answers[i] != finalWant[i] {
			t.Fatalf("persisted final answer %d differs", i)
		}
	}
}
