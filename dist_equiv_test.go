package truthdiscovery

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"truthdiscovery/internal/datagen"
	"truthdiscovery/internal/dist"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
	"truthdiscovery/internal/store"
	"truthdiscovery/internal/value"
)

// The distributed serving contract (ISSUE 7): a coordinator driving
// shard-worker processes behind the scatter-gather router serves answers
// bit-identical to a direct public Fuse of the same snapshot — at any
// worker count, including after live claim ingest, and again after a
// worker restarts and reattaches. CI runs this file under -race.

// distEquivMethods samples the families the distributed driver supports:
// item-local, iterative-similarity, Bayesian, per-attribute Bayesian.
var distEquivMethods = []string{"Vote", "AccuPr", "AccuFormatAttr"}

// routedFleet is a two-worker distributed serving stack on loopback
// HTTP: shard workers behind httptest servers, the scatter-gather router
// fronting them, the coordinator wired as the ingest applier.
type routedFleet struct {
	ds      *model.Dataset
	snap    *model.Snapshot
	spec    model.ShardSpec
	bounds  []int
	fp      string
	method  fusion.Method
	workers []*dist.Worker
	servers []*httptest.Server
	peers   []*dist.PeerClient
	stores  []string
	rt      *serve.Router
	coord   *dist.Coordinator
	ing     *serve.Ingester
	front   *httptest.Server
}

// distEquivWorld is a reduced but calibrated Stock world — small enough
// that every method fuses in milliseconds over HTTP, large enough that
// both workers own claimed items.
func distEquivWorld(t *testing.T) (*model.Dataset, *model.Snapshot) {
	t.Helper()
	cfg := datagen.DefaultStockConfig(3)
	cfg.Stocks = 60
	cfg.GoldSymbols = 30
	cfg.Days = 2
	gen := datagen.NewStock(cfg)
	ds := gen.Dataset()
	snap := gen.Snapshot(1)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(value.DefaultAlpha, snap)
	return ds, snap
}

// newRoutedFleet boots the full stack: workers → router → coordinator →
// ingester, runs the first fused version and fronts it all with one
// httptest server speaking the routed /v1 API.
func newRoutedFleet(t *testing.T, ds *model.Dataset, snap *model.Snapshot, method string, withStores bool) *routedFleet {
	t.Helper()
	m, ok := fusion.ByName(method)
	if !ok {
		t.Fatalf("unknown method %s", method)
	}
	fl := &routedFleet{
		ds:     ds,
		snap:   snap,
		spec:   model.RangeShards(4, len(ds.Items)),
		bounds: []int{0, 2, 4},
		fp:     FuseOptions{}.Fingerprint(method),
		method: m,
	}
	addrs := make([]string, len(fl.bounds)-1)
	for w := 0; w+1 < len(fl.bounds); w++ {
		var st *store.Store
		if withStores {
			dir := t.TempDir()
			fl.stores = append(fl.stores, dir)
			var err error
			if st, err = store.Open(dir); err != nil {
				t.Fatal(err)
			}
		}
		wk, err := dist.NewWorker(dist.WorkerConfig{
			DS: ds, Snap: snap, Spec: fl.spec,
			Lo: fl.bounds[w], Hi: fl.bounds[w+1], Index: w,
			Method: m, Fingerprint: fl.fp, Store: st,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(wk.Handler())
		t.Cleanup(ts.Close)
		fl.workers = append(fl.workers, wk)
		fl.servers = append(fl.servers, ts)
		fl.peers = append(fl.peers, dist.NewPeerClient(ts.URL))
		addrs[w] = ts.URL
	}
	rt, err := serve.NewRouter(ds, fl.spec, fl.bounds, addrs)
	if err != nil {
		t.Fatal(err)
	}
	fl.rt = rt
	fl.coord = dist.NewCoordinator(dist.CoordinatorConfig{
		DS: ds, Spec: fl.spec, Method: m, Fingerprint: fl.fp,
		Base: snap, Srv: rt.Server(), OnPublish: rt.SetWorkerVersion,
	}, fl.peers)
	if err := fl.coord.Init(); err != nil {
		t.Fatal(err)
	}
	rt.Server().SetExtraStats(func() map[string]any {
		return map[string]any{"coordinator": fl.coord.Stats(), "router": rt.Stats()}
	})
	fl.ing = serve.NewIngester(ds, fl.coord, snap, serve.IngestConfig{MaxBatch: 1 << 20})
	rt.Server().SetIngester(fl.ing)
	if _, err := fl.coord.RunAndPublish(); err != nil {
		t.Fatal(err)
	}
	fl.front = httptest.NewServer(rt.Handler())
	t.Cleanup(fl.front.Close)
	return fl
}

// getRouted decodes one routed GET, asserting the status.
func getRouted(t *testing.T, ts *httptest.Server, path string, wantStatus int, out any) *http.Response {
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
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
	return resp
}

// TestRoutedBitIdenticalToFuse: per method, the routed fleet's merged
// /v1/answers equal a direct public Fuse to the bit, and point queries
// answer from the owning worker with exactly that object's slice.
func TestRoutedBitIdenticalToFuse(t *testing.T) {
	ds, snap := distEquivWorld(t)
	for _, method := range distEquivMethods {
		t.Run(method, func(t *testing.T) {
			want, err := Fuse(ds, snap, method, FuseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fl := newRoutedFleet(t, ds, snap, method, false)

			var got wirePayload
			resp := getRouted(t, fl.front, "/v1/answers", http.StatusOK, &got)
			if got.Version != 1 {
				t.Fatalf("routed version %d, want 1", got.Version)
			}
			sameWireAnswers(t, method+" routed /v1/answers", got.Answers, want)

			// The merged payload carries a fleet-consistent strong ETag.
			etag := resp.Header.Get("ETag")
			if etag == "" {
				t.Fatal("routed answers carry no ETag")
			}
			req, _ := http.NewRequest(http.MethodGet, fl.front.URL+"/v1/answers", nil)
			req.Header.Set("If-None-Match", etag)
			cond, err := fl.front.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			cond.Body.Close()
			if cond.StatusCode != http.StatusNotModified {
				t.Fatalf("conditional routed GET: status %d, want 304", cond.StatusCode)
			}

			// Point queries: first, a middle and the last object — which
			// span both workers — return exactly that object's answers.
			keys := []string{want[0].ObjectKey, want[len(want)/2].ObjectKey, want[len(want)-1].ObjectKey}
			for _, key := range keys {
				var sub []Answer
				for _, a := range want {
					if a.ObjectKey == key {
						sub = append(sub, a)
					}
				}
				var one wirePayload
				getRouted(t, fl.front, "/v1/answers/"+key, http.StatusOK, &one)
				sameWireAnswers(t, method+" routed object "+key, one.Answers, sub)
			}

			// An unknown object is a routed 404 envelope, not a fan-out.
			var env struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			getRouted(t, fl.front, "/v1/answers/no-such-object", http.StatusNotFound, &env)
			if env.Error.Code != "unknown_object" {
				t.Fatalf("unknown object code %q, want unknown_object", env.Error.Code)
			}
		})
	}
}

// TestRoutedStatsTopology: the routed /v1/stats carries the stable
// topology object plus the coordinator and router counter groups.
func TestRoutedStatsTopology(t *testing.T) {
	ds, snap := distEquivWorld(t)
	fl := newRoutedFleet(t, ds, snap, "Vote", false)
	var stats map[string]any
	getRouted(t, fl.front, "/v1/stats", http.StatusOK, &stats)
	topo, ok := stats["topology"].(map[string]any)
	if !ok {
		t.Fatalf("stats have no topology object: %v", stats)
	}
	if topo["mode"] != "distributed" || topo["kind"] != "range" || topo["shards"] != float64(4) {
		t.Fatalf("topology %v, want distributed/range over 4 shards", topo)
	}
	workers, ok := topo["workers"].([]any)
	if !ok || len(workers) != 2 {
		t.Fatalf("topology lists %d workers, want 2", len(workers))
	}
	for i, w := range workers {
		row := w.(map[string]any)
		if row["healthy"] != true || row["version"] != float64(1) {
			t.Fatalf("worker %d row %v, want healthy at version 1", i, row)
		}
	}
	if _, ok := stats["coordinator"].(map[string]any); !ok {
		t.Fatalf("stats have no coordinator group: %v", stats)
	}
	if _, ok := stats["router"].(map[string]any); !ok {
		t.Fatalf("stats have no router group: %v", stats)
	}
}

// TestRoutedIngestWaitBitIdentical: claims POSTed with ?wait=1 block
// until the fleet publishes, answer 200 with the published version and
// ETag, and the routed answers afterwards are bit-identical to a direct
// public Fuse of the advanced snapshot.
func TestRoutedIngestWaitBitIdentical(t *testing.T) {
	ds, snap := distEquivWorld(t)
	method := "AccuPr"
	fl := newRoutedFleet(t, ds, snap, method, false)
	fl.ing.Start()
	t.Cleanup(func() { _ = fl.ing.Close() })

	// Mutations across the claim table — spanning both workers' shards.
	var ops []serve.ClaimOp
	claims := claimList(snap)
	for ci := 0; ci < len(claims) && len(ops) < 120; ci += 5 {
		c := &claims[ci]
		it := ds.Items[c.Item]
		ops = append(ops, serve.ClaimOp{
			Source:    ds.Sources[c.Source].Name,
			Object:    ds.Objects[it.Object].Key,
			Attribute: ds.Attrs[it.Attr].Name,
			Value:     fmt.Sprintf("%.2f", float64(10+len(ops)%90)+0.25),
		})
	}
	if len(ops) < 60 {
		t.Fatalf("only %d mutations", len(ops))
	}
	body, err := json.Marshal(map[string]any{"claims": ops})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := fl.front.Client().Post(fl.front.URL+"/v1/claims?wait=1",
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Accepted int    `json:"accepted"`
		Version  uint64 `json:"version"`
		ETag     string `json:"etag"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("awaited claims post: status %d, want 200", resp.StatusCode)
	}
	if ack.Accepted != len(ops) || ack.Version != 2 {
		t.Fatalf("awaited ack %+v, want %d accepted at version 2", ack, len(ops))
	}
	if ack.ETag == "" || ack.ETag != resp.Header.Get("ETag") {
		t.Fatalf("awaited ack etag %q vs header %q", ack.ETag, resp.Header.Get("ETag"))
	}

	// The fleet now serves the advanced snapshot: routed answers are a
	// direct public Fuse of the ingester's base, to the bit, and the
	// awaited ETag is the one the read path serves.
	want, err := Fuse(ds, fl.ing.Base(), method, FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got wirePayload
	read := getRouted(t, fl.front, "/v1/answers", http.StatusOK, &got)
	if got.Version != 2 {
		t.Fatalf("routed version %d after awaited ingest, want 2", got.Version)
	}
	if read.Header.Get("ETag") != ack.ETag {
		t.Fatalf("read ETag %q, awaited ETag %q", read.Header.Get("ETag"), ack.ETag)
	}
	sameWireAnswers(t, "routed post-ingest /v1/answers", got.Answers, want)
}

// TestRoutedWorkerRestart: killing a worker turns routed reads into
// enveloped 503s; a replacement process resumed from the worker's store
// reattaches, and the fleet serves bit-identical answers again.
func TestRoutedWorkerRestart(t *testing.T) {
	ds, snap := distEquivWorld(t)
	method := "Vote"
	want, err := Fuse(ds, snap, method, FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fl := newRoutedFleet(t, ds, snap, method, true)

	var got wirePayload
	getRouted(t, fl.front, "/v1/answers", http.StatusOK, &got)
	sameWireAnswers(t, "routed pre-restart", got.Answers, want)

	// Kill worker 1. The next scatter fails with the worker_unavailable
	// envelope and the topology row flips unhealthy.
	fl.servers[1].Close()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	getRouted(t, fl.front, "/v1/answers", http.StatusServiceUnavailable, &env)
	if env.Error.Code != "worker_unavailable" || !strings.Contains(env.Error.Message, "worker 1") {
		t.Fatalf("down-worker envelope %+v, want worker_unavailable naming worker 1", env)
	}
	var stats map[string]any
	getRouted(t, fl.front, "/v1/stats", http.StatusOK, &stats)
	row := stats["topology"].(map[string]any)["workers"].([]any)[1].(map[string]any)
	if row["healthy"] != false {
		t.Fatalf("worker 1 topology row %v, want unhealthy", row)
	}

	// Respawn worker 1 from the genesis snapshot and its store; the
	// warm-start serves the persisted local run before reattachment.
	st, err := store.Open(fl.stores[1])
	if err != nil {
		t.Fatal(err)
	}
	wk, err := dist.NewWorker(dist.WorkerConfig{
		DS: ds, Snap: snap, Spec: fl.spec,
		Lo: fl.bounds[1], Hi: fl.bounds[2], Index: 1,
		Method: fl.method, Fingerprint: fl.fp, Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(wk.Handler())
	t.Cleanup(ts.Close)
	fl.rt.SetWorker(1, ts.URL)
	if err := fl.coord.Reattach(1, ts.URL); err != nil {
		t.Fatal(err)
	}

	// The fleet republished under a fresh version; routed answers are
	// whole and bit-identical again.
	var after wirePayload
	getRouted(t, fl.front, "/v1/answers", http.StatusOK, &after)
	if after.Version != 2 {
		t.Fatalf("post-reattach version %d, want 2", after.Version)
	}
	sameWireAnswers(t, "routed post-reattach", after.Answers, want)
}
