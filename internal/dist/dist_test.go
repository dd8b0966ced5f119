package dist

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"truthdiscovery/internal/datagen"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
	"truthdiscovery/internal/store"
	"truthdiscovery/internal/value"
)

// The transport-level contract: DistRun over real HTTP workers is
// bit-identical to flat Fuse — the JSON wire adds nothing and loses
// nothing (encoding/json round-trips float64 exactly). The loopback
// half of this contract lives in internal/fusion; the router half at
// the repo root.

func world(t *testing.T, days int) (*model.Dataset, []*model.Snapshot) {
	t.Helper()
	cfg := datagen.DefaultStockConfig(3)
	cfg.Stocks = 60
	cfg.GoldSymbols = 30
	cfg.Days = days
	gen := datagen.NewStock(cfg)
	ds := gen.Dataset()
	snaps := make([]*model.Snapshot, days)
	for d := range snaps {
		snaps[d] = gen.Snapshot(d)
		ds.AddSnapshot(snaps[d])
	}
	ds.ComputeTolerances(value.DefaultAlpha, snaps...)
	return ds, snaps
}

// testFleet is a set of in-process HTTP workers plus their coordinator,
// all driven through real requests so -race sees the full path.
type testFleet struct {
	workers []*Worker
	servers []*httptest.Server
	peers   []*PeerClient
	coord   *Coordinator
	bounds  []int
}

func newFleet(t *testing.T, ds *model.Dataset, snap *model.Snapshot, m fusion.Method,
	spec model.ShardSpec, bounds []int, storeDirs []string, srv *serve.Server) *testFleet {
	t.Helper()
	fp := "test-fp/" + m.Name()
	fl := &testFleet{bounds: bounds}
	for w := 0; w+1 < len(bounds); w++ {
		var st *store.Store
		if storeDirs != nil && storeDirs[w] != "" {
			var err error
			if st, err = store.Open(storeDirs[w]); err != nil {
				t.Fatal(err)
			}
		}
		wk, err := NewWorker(WorkerConfig{
			DS: ds, Snap: snap, Spec: spec,
			Lo: bounds[w], Hi: bounds[w+1], Index: w,
			Method: m, Fingerprint: fp, Store: st,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(wk.Handler())
		t.Cleanup(ts.Close)
		fl.workers = append(fl.workers, wk)
		fl.servers = append(fl.servers, ts)
		fl.peers = append(fl.peers, NewPeerClient(ts.URL))
	}
	fl.coord = NewCoordinator(CoordinatorConfig{
		DS: ds, Spec: spec, Method: m, Fingerprint: fp, Base: snap, Srv: srv,
	}, fl.peers)
	if err := fl.coord.Init(); err != nil {
		t.Fatal(err)
	}
	return fl
}

func sameAnswers(t *testing.T, ctx string, got, want []fusion.Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: answer %d differs: %+v vs %+v", ctx, i, got[i], want[i])
		}
	}
}

func sameBits(t *testing.T, ctx string, a, b []float64) {
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

// workerAnswers decodes one worker's served /v1/answers payload.
func workerAnswers(t *testing.T, ts *httptest.Server) (uint64, []json.RawMessage) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/answers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker /v1/answers: status %d", resp.StatusCode)
	}
	var out struct {
		Version uint64            `json:"version"`
		Answers []json.RawMessage `json:"answers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Version, out.Answers
}

func flatReference(ds *model.Dataset, snap *model.Snapshot, m fusion.Method) (*fusion.Result, []fusion.Answer) {
	p := fusion.Build(ds, snap, nil, m.Needs())
	res := m.Run(p, fusion.Options{})
	return res, fusion.AnswersFor(ds, p, res)
}

// TestHTTPFleetBitIdentical: a coordinator run over HTTP workers
// publishes, on every worker, exactly the flat-Fuse slice of the owned
// range — answers via the stored runs, trust via the meta view.
func TestHTTPFleetBitIdentical(t *testing.T) {
	ds, snaps := world(t, 1)
	snap := snaps[0]
	spec := model.RangeShards(4, snap.NumItems())
	for _, name := range []string{"Vote", "Cosine", "AccuPr", "AccuFormatAttr"} {
		m, ok := fusion.ByName(name)
		if !ok {
			t.Fatalf("no method %s", name)
		}
		wantRes, wantAns := flatReference(ds, snap, m)
		srv := serve.NewServer()
		dirs := make([]string, 2)
		for i := range dirs {
			dirs[i] = t.TempDir()
		}
		fl := newFleet(t, ds, snap, m, spec, []int{0, 2, 4}, dirs, srv)
		v, err := fl.coord.RunAndPublish()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.Version != 1 {
			t.Fatalf("%s: first publish is version %d", name, v.Version)
		}
		sameBits(t, name+" trust", v.Trust, wantRes.Trust)

		// Every worker persisted its local slice at the fleet version;
		// concatenated in worker order they are the flat answer set.
		var got []fusion.Answer
		for w := range fl.workers {
			st, err := store.Open(dirs[w])
			if err != nil {
				t.Fatal(err)
			}
			run, err := st.LoadCurrent()
			if err != nil {
				t.Fatal(err)
			}
			if run == nil || run.Version != 1 {
				t.Fatalf("%s: worker %d store has no version-1 run", name, w)
			}
			sameBits(t, fmt.Sprintf("%s worker %d trust", name, w), run.Trust, wantRes.Trust)
			got = append(got, run.Answers...)
		}
		sameAnswers(t, name+" fleet answers", got, wantAns)

		// The served (HTTP) answer counts tile the flat set and agree on
		// the version.
		total := 0
		for w, ts := range fl.servers {
			version, answers := workerAnswers(t, ts)
			if version != 1 {
				t.Fatalf("%s: worker %d serves version %d", name, w, version)
			}
			total += len(answers)
		}
		if total != len(wantAns) {
			t.Fatalf("%s: fleet serves %d answers, want %d", name, total, len(wantAns))
		}
	}
}

// TestHTTPApplyBitIdentical: each delta pushed through Coordinator.Apply
// leaves the fleet bit-identical to flat Fuse of the advanced snapshot.
// Two deltas in a row make every worker advance the problems it
// maintained at the first.
func TestHTTPApplyBitIdentical(t *testing.T) {
	ds, snaps := world(t, 3)
	spec := model.RangeShards(4, snaps[0].NumItems())
	m, _ := fusion.ByName("AccuPr")

	dirs := []string{t.TempDir(), t.TempDir()}
	fl := newFleet(t, ds, snaps[0], m, spec, []int{0, 2, 4}, dirs, serve.NewServer())
	if _, err := fl.coord.RunAndPublish(); err != nil {
		t.Fatal(err)
	}
	for d := 1; d < len(snaps); d++ {
		wantRes, wantAns := flatReference(ds, snaps[d], m)
		dl, err := snaps[d-1].Diff(snaps[d])
		if err != nil {
			t.Fatal(err)
		}
		// Apply ships the split delta to the workers over the wire, so it
		// must survive encoding (MarkSorted is restored worker-side).
		v, stats, err := fl.coord.Apply(dl)
		if err != nil {
			t.Fatal(err)
		}
		version := uint64(d + 1)
		if v.Version != version || stats.Mode != fusion.ModeFull {
			t.Fatalf("day %d: apply published version %d mode %v", d, v.Version, stats.Mode)
		}
		sameBits(t, fmt.Sprintf("day %d trust", d), v.Trust, wantRes.Trust)
		var got []fusion.Answer
		for w := range fl.workers {
			st, err := store.Open(dirs[w])
			if err != nil {
				t.Fatal(err)
			}
			run, err := st.LoadCurrent()
			if err != nil {
				t.Fatal(err)
			}
			if run.Version != version || run.Day != snaps[d].Day {
				t.Fatalf("day %d: worker %d run: version %d day %d", d, w, run.Version, run.Day)
			}
			got = append(got, run.Answers...)
		}
		sameAnswers(t, fmt.Sprintf("day %d fleet answers", d), got, wantAns)
	}
}

// TestWorkerRestartReattach: a worker killed and rebuilt from the
// genesis snapshot warm-starts serving from its store, and Reattach
// replays the stream — two days of it, in one delta — so the next
// publish is again bit-identical.
func TestWorkerRestartReattach(t *testing.T) {
	ds, snaps := world(t, 3)
	day0, last := snaps[0], snaps[len(snaps)-1]
	spec := model.RangeShards(4, day0.NumItems())
	m, _ := fusion.ByName("AccuPr")
	_, wantAns := flatReference(ds, last, m)

	dirs := []string{t.TempDir(), t.TempDir()}
	fl := newFleet(t, ds, day0, m, spec, []int{0, 2, 4}, dirs, serve.NewServer())
	if _, err := fl.coord.RunAndPublish(); err != nil {
		t.Fatal(err)
	}
	for d := 1; d < len(snaps); d++ {
		dl, err := snaps[d-1].Diff(snaps[d])
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fl.coord.Apply(dl); err != nil {
			t.Fatal(err)
		}
	}
	published := fl.coord.Version()

	// Kill worker 1 and rebuild it from the genesis snapshot + its store.
	fl.servers[1].Close()
	st, err := store.Open(dirs[1])
	if err != nil {
		t.Fatal(err)
	}
	wk, err := NewWorker(WorkerConfig{
		DS: ds, Snap: day0, Spec: spec, Lo: 2, Hi: 4, Index: 1,
		Method: m, Fingerprint: "test-fp/" + m.Name(), Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(wk.Handler())
	t.Cleanup(ts.Close)

	// Warm start: before any reattach, the restarted worker already
	// serves its persisted answers of the last published version.
	version, answers := workerAnswers(t, ts)
	if version != published || len(answers) == 0 {
		t.Fatalf("restarted worker serves version %d with %d answers, want warm version %d", version, len(answers), published)
	}

	// Reattach replays day0→last to the worker's shards and republishes
	// the whole fleet at the next version, still bit-identical.
	if err := fl.coord.Reattach(1, ts.URL); err != nil {
		t.Fatal(err)
	}
	if got := fl.coord.Version(); got != published+1 {
		t.Fatalf("fleet at version %d after reattach, want %d", got, published+1)
	}
	var got []fusion.Answer
	for w, dir := range dirs {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		run, err := st.LoadCurrent()
		if err != nil {
			t.Fatal(err)
		}
		if run.Version != published+1 || run.Day != last.Day {
			t.Fatalf("worker %d at version %d day %d after reattach", w, run.Version, run.Day)
		}
		got = append(got, run.Answers...)
	}
	sameAnswers(t, "reattached fleet answers", got, wantAns)
}

// TestCoordinatorValidation: fleets that do not tile the spec, disagree
// on the method, or skip shards are refused at Init.
func TestCoordinatorValidation(t *testing.T) {
	ds, snaps := world(t, 1)
	snap := snaps[0]
	spec := model.RangeShards(4, snap.NumItems())
	m, _ := fusion.ByName("AccuPr")
	mk := func(lo, hi int, fp string) *httptest.Server {
		wk, err := NewWorker(WorkerConfig{
			DS: ds, Snap: snap, Spec: spec, Lo: lo, Hi: hi, Index: 0,
			Method: m, Fingerprint: fp,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(wk.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	coordFor := func(urls ...string) *Coordinator {
		peers := make([]*PeerClient, len(urls))
		for i, u := range urls {
			peers[i] = NewPeerClient(u)
		}
		return NewCoordinator(CoordinatorConfig{
			DS: ds, Spec: spec, Method: m, Fingerprint: "fp", Base: snap,
		}, peers)
	}
	// A gap in the tiling.
	a := mk(0, 2, "fp")
	b := mk(3, 4, "fp")
	if err := coordFor(a.URL, b.URL).Init(); err == nil {
		t.Fatal("Init accepted a fleet with a shard gap")
	}
	// Fingerprint mismatch.
	c := mk(2, 4, "other-fp")
	if err := coordFor(a.URL, c.URL).Init(); err == nil {
		t.Fatal("Init accepted a fingerprint mismatch")
	}
	// No workers at all.
	if err := coordFor().Init(); err == nil {
		t.Fatal("Init accepted an empty fleet")
	}
}

// TestHTTPFleetEmptyRange: a worker whose shard range holds only
// unclaimed items has no scores, so its rescale extrema are the
// (+Inf, -Inf) sentinel JSON cannot encode. The reply carries the
// emptiness explicitly, and the fleet still matches flat Fuse.
func TestHTTPFleetEmptyRange(t *testing.T) {
	ds, snaps := world(t, 1)
	spec := model.RangeShards(2, snaps[0].NumItems())
	var claims []model.Claim
	for _, c := range snaps[0].Claims {
		if spec.ShardOf(c.Item) == 0 {
			claims = append(claims, c)
		}
	}
	snap := model.NewSnapshot(snaps[0].Day, snaps[0].Label, snaps[0].NumItems(), claims)
	for _, name := range []string{"2-Estimates", "3-Estimates"} {
		m, _ := fusion.ByName(name)
		wantRes, wantAns := flatReference(ds, snap, m)
		dirs := []string{t.TempDir(), t.TempDir()}
		fl := newFleet(t, ds, snap, m, spec, []int{0, 1, 2}, dirs, serve.NewServer())
		v, err := fl.coord.RunAndPublish()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameBits(t, name+" trust", v.Trust, wantRes.Trust)
		var got []fusion.Answer
		for _, dir := range dirs {
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			run, err := st.LoadCurrent()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, run.Answers...)
		}
		sameAnswers(t, name+" answers", got, wantAns)
	}
}

// truncatingPeer halves the first accumulator row its worker returns.
type truncatingPeer struct{ *PeerClient }

func (p truncatingPeer) Fold(fold int, trust []float64, byKey [][]float64, acc [][]float64) ([][]float64, error) {
	out, err := p.PeerClient.Fold(fold, trust, byKey, acc)
	if err == nil && len(out) > 0 {
		out[0] = out[0][:len(out[0])/2]
	}
	return out, err
}

// TestDistRunShortFoldRow: a short accumulator row is reported against
// the peer that returned it, before the next worker can trip on it.
func TestDistRunShortFoldRow(t *testing.T) {
	ds, snaps := world(t, 1)
	snap := snaps[0]
	spec := model.RangeShards(4, snap.NumItems())
	m, _ := fusion.ByName("AccuPr")
	fl := newFleet(t, ds, snap, m, spec, []int{0, 2, 4}, nil, nil)
	peers := []fusion.DistPeer{truncatingPeer{fl.peers[0]}, fl.peers[1]}
	_, err := fusion.DistRun(m, fusion.Options{}, peers, fl.coord.n, fl.coord.nAttrs, fl.coord.cps)
	if err == nil || !strings.Contains(err.Error(), "peer 0") {
		t.Fatalf("DistRun error %v, want one naming peer 0", err)
	}
}

// TestWriteRPCUnencodable: a reply JSON cannot carry answers an rpcError
// 500 instead of a 200 with a truncated body.
func TestWriteRPCUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeRPC(rec, http.StatusOK, minmaxResponse{Lo: math.Inf(1), Hi: math.Inf(-1)})
	var re rpcError
	if err := json.Unmarshal(rec.Body.Bytes(), &re); rec.Code != http.StatusInternalServerError || err != nil || re.Error == "" {
		t.Fatalf("status %d body %q, want a 500 rpcError", rec.Code, rec.Body.String())
	}
}

// TestWorkerApplyRejectsBadDelta: a worker owning two shards answers a
// malformed shard delta with the rpc error body, not a dropped
// connection, and leaves both shards as they were even though the other
// shard's delta was valid: the same valid deltas apply afterwards.
func TestWorkerApplyRejectsBadDelta(t *testing.T) {
	ds, snaps := world(t, 2)
	day0, day1 := snaps[0], snaps[1]
	n := day0.NumItems()
	spec := model.RangeShards(2, n)
	m, _ := fusion.ByName("AccuPr")
	wk, err := NewWorker(WorkerConfig{DS: ds, Snap: day0, Spec: spec, Lo: 0, Hi: 2, Method: m, Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(wk.Handler())
	t.Cleanup(ts.Close)
	peer := NewPeerClient(ts.URL)

	dl, err := day0.Diff(day1)
	if err != nil {
		t.Fatal(err)
	}
	split, err := dl.Split(spec)
	if err != nil {
		t.Fatal(err)
	}
	last := model.ItemID(n - 1) // on shard 1
	for name, bad := range map[string]*model.Delta{
		"item outside the table": {NumItems: n, Added: []model.Claim{
			{Source: 0, Item: model.ItemID(n + 5), Val: value.Num(1), CopiedFrom: model.NoSource}}},
		"stale retraction": {NumItems: n, Retracted: []model.Claim{
			{Source: 0, Item: last, Val: value.Num(-1), CopiedFrom: model.NoSource}}},
	} {
		cps := append([]int(nil), wk.sp.ClaimsPerSource...)
		_, err := peer.Apply([]*model.Delta{split[0], bad})
		if err == nil || !strings.Contains(err.Error(), "worker says") {
			t.Fatalf("%s: apply answered %v, want the worker's rpc error", name, err)
		}
		if wk.day != day0.Day || !reflect.DeepEqual(wk.sp.ClaimsPerSource, cps) {
			t.Fatalf("%s: the failed apply changed the worker", name)
		}
	}
	resp, err := peer.Apply(split)
	if err != nil {
		t.Fatalf("the valid deltas no longer apply: %v", err)
	}
	want, err := fusion.BuildSharded(ds, day1, nil, spec, 0, 2, m.Needs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Day != day1.Day || !reflect.DeepEqual(resp.CPS, want.ClaimsPerSource) {
		t.Fatalf("applied worker at day %d with claim counts %v, want day %d and %v",
			resp.Day, resp.CPS, day1.Day, want.ClaimsPerSource)
	}
}

// TestApplyRollsBackFailedWorker: a worker that is down mid-apply leaves
// the whole fleet at the old day — the workers that advanced before it
// are rolled back — so after the worker returns the same delta applies,
// bit-identical to flat Fuse of the new day.
func TestApplyRollsBackFailedWorker(t *testing.T) {
	ds, snaps := world(t, 2)
	spec := model.RangeShards(4, snaps[0].NumItems())
	m, _ := fusion.ByName("AccuPr")
	dirs := []string{t.TempDir(), t.TempDir()}
	fl := newFleet(t, ds, snaps[0], m, spec, []int{0, 2, 4}, dirs, serve.NewServer())
	if _, err := fl.coord.RunAndPublish(); err != nil {
		t.Fatal(err)
	}
	dl, err := snaps[0].Diff(snaps[1])
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1 goes down; its state stays at day 0.
	fl.servers[1].Close()
	if _, _, err := fl.coord.Apply(dl); err == nil {
		t.Fatal("apply with worker 1 down succeeded")
	}
	if day := fl.coord.Base().Day; day != snaps[0].Day {
		t.Fatalf("coordinator at day %d after the failed apply, want %d", day, snaps[0].Day)
	}
	d, err := fl.peers[0].Describe()
	if err != nil {
		t.Fatal(err)
	}
	if d.Day != snaps[0].Day {
		t.Fatalf("worker 0 at day %d after the failed apply, want %d", d.Day, snaps[0].Day)
	}

	// Worker 1 returns on a new listener, and the same delta applies.
	ts := httptest.NewServer(fl.workers[1].Handler())
	t.Cleanup(ts.Close)
	if err := fl.coord.Reattach(1, ts.URL); err != nil {
		t.Fatal(err)
	}
	v, _, err := fl.coord.Apply(dl)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantAns := flatReference(ds, snaps[1], m)
	sameBits(t, "retried trust", v.Trust, wantRes.Trust)
	var got []fusion.Answer
	for w, dir := range dirs {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		run, err := st.LoadCurrent()
		if err != nil {
			t.Fatal(err)
		}
		if run.Version != v.Version || run.Day != snaps[1].Day {
			t.Fatalf("worker %d at version %d day %d, want version %d day %d",
				w, run.Version, run.Day, v.Version, snaps[1].Day)
		}
		got = append(got, run.Answers...)
	}
	sameAnswers(t, "retried fleet answers", got, wantAns)
}
