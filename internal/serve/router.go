package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"truthdiscovery/internal/model"
)

// Router is the distributed serving front door: it owns a Server for
// the fleet-level endpoints (healthz, methods, trust, stats, claims —
// all answered from the coordinator's meta view and ingester) and
// scatter-gathers the answer endpoints across the shard workers.
// Range sharding makes worker order global item order, so concatenating
// the workers' answer lists and encoding them with the flat server's
// encoder reproduces the flat server's bytes. Worker payloads are
// decoded, not spliced, so the typed decode validates what the fleet
// sends.
//
// Point queries fan out to exactly the workers owning the object's
// items (precomputed from the item table and the shard spec — for
// range sharding that is almost always a single worker).
type Router struct {
	srv  *Server
	spec model.ShardSpec
	hc   *http.Client

	// objOwners maps every object key to the ascending worker indexes
	// owning at least one of its items. Immutable after NewRouter.
	objOwners map[string][]int

	mu      sync.RWMutex
	bounds  []int // worker w owns shards [bounds[w], bounds[w+1])
	addrs   []string
	healthy []bool
	vers    []uint64
	// scatter counters for /v1/stats.
	scatters   uint64
	fanFails   uint64
	retriesGot uint64
}

// NewRouter builds a router over a fleet tiling the range spec: worker
// w owns shards [bounds[w], bounds[w+1]); addrs[w] is its base URL
// (may be empty until SetWorker). The spec must be the fleet's.
func NewRouter(ds *model.Dataset, spec model.ShardSpec, bounds []int, addrs []string) (*Router, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(bounds) != len(addrs)+1 || bounds[0] != 0 || bounds[len(bounds)-1] != spec.Shards {
		return nil, fmt.Errorf("serve: bounds %v do not tile %d shards across %d workers", bounds, spec.Shards, len(addrs))
	}
	shardOwner := make([]int, spec.Shards)
	for w := 0; w < len(addrs); w++ {
		if bounds[w] >= bounds[w+1] {
			return nil, fmt.Errorf("serve: worker %d owns an empty shard range [%d,%d)", w, bounds[w], bounds[w+1])
		}
		for s := bounds[w]; s < bounds[w+1]; s++ {
			shardOwner[s] = w
		}
	}
	// Item IDs ascend within an object scan, and range sharding makes
	// ShardOf non-decreasing in the item ID, so each object's owner list
	// builds deduplicated by appending on change.
	owners := make(map[string][]int, len(ds.Objects))
	for i := range ds.Items {
		key := ds.Objects[ds.Items[i].Object].Key
		w := shardOwner[spec.ShardOf(ds.Items[i].ID)]
		if lst := owners[key]; len(lst) == 0 || lst[len(lst)-1] != w {
			owners[key] = append(lst, w)
		}
	}
	rt := &Router{
		srv:       NewServer(),
		spec:      spec,
		hc:        &http.Client{Timeout: 30 * time.Second},
		objOwners: owners,
		bounds:    append([]int(nil), bounds...),
		addrs:     append([]string(nil), addrs...),
		healthy:   make([]bool, len(addrs)),
		vers:      make([]uint64, len(addrs)),
	}
	for w := range rt.healthy {
		rt.healthy[w] = addrs[w] != ""
	}
	rt.refreshTopology()
	return rt, nil
}

// Server exposes the router's own server: the coordinator swaps its
// meta view here and the ingester arms POST /v1/claims through it.
func (rt *Router) Server() *Server { return rt.srv }

// SetWorker (re-)points worker w at a base URL and marks it healthy.
func (rt *Router) SetWorker(w int, addr string) {
	rt.mu.Lock()
	rt.addrs[w] = addr
	rt.healthy[w] = addr != ""
	rt.mu.Unlock()
	rt.refreshTopology()
}

// SetWorkerVersion records the version worker w last published (the
// coordinator's OnPublish hook) and restores its health.
func (rt *Router) SetWorkerVersion(w int, version uint64) {
	rt.mu.Lock()
	rt.vers[w] = version
	rt.healthy[w] = true
	rt.mu.Unlock()
	rt.refreshTopology()
}

// MarkWorkerDown flags worker w unhealthy (fan-out failures do this
// automatically).
func (rt *Router) MarkWorkerDown(w int) {
	rt.mu.Lock()
	changed := rt.healthy[w]
	rt.healthy[w] = false
	rt.mu.Unlock()
	if changed {
		rt.refreshTopology()
	}
}

// refreshTopology republishes the fleet layout into the server's stats.
func (rt *Router) refreshTopology() {
	rt.mu.RLock()
	workers := make([]WorkerStatus, len(rt.addrs))
	for w := range rt.addrs {
		workers[w] = WorkerStatus{
			Index:   w,
			Addr:    rt.addrs[w],
			Shards:  [2]int{rt.bounds[w], rt.bounds[w+1]},
			Healthy: rt.healthy[w],
			Version: rt.vers[w],
		}
	}
	rt.mu.RUnlock()
	rt.srv.SetTopology(Topology{
		Mode:    "distributed",
		Shards:  rt.spec.Shards,
		Kind:    "range",
		Workers: workers,
	})
}

// Handler routes the answer endpoints through the scatter-gather path
// and everything else (healthz, methods, trust, stats, claims, the 410
// legacy pointers, the enveloped 404) to the router's own server.
func (rt *Router) Handler() http.Handler {
	inner := rt.srv.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/answers", rt.srv.allow(http.MethodGet, rt.handleAnswers))
	mux.HandleFunc("/v1/answers/{object}", rt.srv.allow(http.MethodGet, rt.handleObject))
	mux.Handle("/", inner)
	return mux
}

// fanResult is one worker's decoded answer payload.
type fanResult struct {
	status int
	hdr    answersHeader
}

// fetch pulls one worker's answers path, marking the worker down on
// transport failure.
func (rt *Router) fetch(w int, path string) (*fanResult, error) {
	rt.mu.RLock()
	addr := rt.addrs[w]
	rt.mu.RUnlock()
	if addr == "" {
		return nil, fmt.Errorf("worker %d has no address", w)
	}
	resp, err := rt.hc.Get(addr + path)
	if err != nil {
		rt.MarkWorkerDown(w)
		return nil, err
	}
	defer resp.Body.Close()
	fr := &fanResult{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&fr.hdr); err != nil {
			return nil, fmt.Errorf("worker %d sent an undecodable payload: %w", w, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	}
	return fr, nil
}

// scatter fans one answers path across the given workers and merges the
// 200 payloads in worker order (which is global item order). Per-worker
// 404s are skipped and counted; any transport error or non-404 failure
// aborts. Version skew against want aborts with errSkew so the caller
// can reload its view and retry once — a publish may land mid-scatter.
var errSkew = fmt.Errorf("version skew")

func (rt *Router) scatter(workers []int, path string, want uint64) (merged []answerJSON, misses int, failed int, err error) {
	for _, w := range workers {
		fr, ferr := rt.fetch(w, path)
		if ferr != nil {
			return nil, 0, w, ferr
		}
		switch fr.status {
		case http.StatusOK:
			if fr.hdr.Version != want {
				return nil, 0, w, errSkew
			}
			merged = append(merged, fr.hdr.Answers...)
		case http.StatusNotFound:
			misses++
		default:
			return nil, 0, w, fmt.Errorf("worker %d answered %d", w, fr.status)
		}
	}
	return merged, misses, -1, nil
}

// gatherAnswers runs the conditional-request dance and the scatter with
// one skew retry, then writes the merged payload. pick chooses the
// target workers (nil = not found).
func (rt *Router) gatherAnswers(w http.ResponseWriter, r *http.Request, path string, workers []int, allowAllMisses bool) {
	rt.srv.requests.Add(1)
	v := rt.srv.view.Load()
	if v == nil {
		writeError(w, http.StatusServiceUnavailable, "no_view", "no fused run is being served yet")
		return
	}
	for attempt := 0; ; attempt++ {
		etag := v.ETag()
		if ifNoneMatchHits(r.Header.Get("If-None-Match"), etag) {
			w.Header().Set("ETag", etag)
			w.Header().Set("Cache-Control", cacheControl)
			rt.srv.notModified.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		rt.mu.Lock()
		rt.scatters++
		rt.mu.Unlock()
		merged, misses, failedWorker, err := rt.scatter(workers, path, v.Version)
		if err == errSkew && attempt == 0 {
			// A publish rotated the fleet under us; reload and retry once.
			rt.mu.Lock()
			rt.retriesGot++
			rt.mu.Unlock()
			if nv := rt.srv.view.Load(); nv != nil {
				v = nv
			}
			continue
		}
		if err != nil {
			rt.mu.Lock()
			rt.fanFails++
			rt.mu.Unlock()
			writeError(w, http.StatusServiceUnavailable, "worker_unavailable",
				fmt.Sprintf("shard worker %d cannot answer right now: %v", failedWorker, err))
			return
		}
		if misses == len(workers) && !allowAllMisses {
			writeError(w, http.StatusNotFound, "unknown_object", "no answers for object "+r.PathValue("object"))
			return
		}
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", cacheControl)
		body, err := answersBody(v, len(merged), func(k int) answerJSON { return merged[k] })
		writeAnswers(w, body, err)
		return
	}
}

func (rt *Router) handleAnswers(w http.ResponseWriter, r *http.Request) {
	all := make([]int, len(rt.addrs))
	for i := range all {
		all[i] = i
	}
	rt.gatherAnswers(w, r, "/v1/answers", all, true)
}

func (rt *Router) handleObject(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("object")
	owners := rt.objOwners[key]
	if len(owners) == 0 {
		rt.srv.requests.Add(1)
		writeError(w, http.StatusNotFound, "unknown_object", "no answers for object "+key)
		return
	}
	rt.gatherAnswers(w, r, "/v1/answers/"+key, owners, false)
}

// Stats contributes the router's scatter counters; wire it into the
// server with SetExtraStats alongside the coordinator's entry.
func (rt *Router) Stats() map[string]any {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return map[string]any{
		"scatters":     rt.scatters,
		"fan_failures": rt.fanFails,
		"skew_retries": rt.retriesGot,
	}
}
