package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
	"truthdiscovery/internal/store"
)

// WorkerConfig assembles one shard worker.
type WorkerConfig struct {
	DS   *model.Dataset
	Snap *model.Snapshot
	Spec model.ShardSpec
	// Lo/Hi is the owned shard range [Lo, Hi); Index the worker's rank
	// in the fleet (its row in the router's topology).
	Lo, Hi, Index int
	Method        fusion.Method
	// Opts supplies worker-local knobs only (Parallelism); everything
	// that shapes results arrives from the coordinator at init.
	Opts fusion.Options
	// Fingerprint is the fleet-wide method/options digest; the worker
	// derives its own store fingerprint from it by appending the owned
	// range, so a shard partition can never be mistaken for a flat run.
	Fingerprint string
	// Store, when non-nil, persists the worker's local answers at each
	// coordinator-assigned version, and warm-starts serving on restart.
	Store *store.Store
}

// Worker owns a contiguous shard range and executes the coordinator's
// RPCs over it. Its embedded serve.Server answers the /v1 read API from
// the worker's local answers — the router fans out to these.
type Worker struct {
	cfg     WorkerConfig
	storeFP string
	Srv     *serve.Server

	// mu serializes the control plane. The coordinator broadcasts each
	// phase to all workers concurrently, but sends one RPC at a time to
	// any single worker, so this lock is uncontended during a run; it
	// exists to keep apply/publish atomic against stray calls.
	mu    sync.Mutex
	sp    *fusion.ShardedProblem
	exec  *fusion.DistExec
	day   int
	label string
}

// NewWorker builds the worker's owned shard partition and, when it has
// a store holding a matching run, resumes serving from it immediately —
// a restarted worker answers reads before the coordinator reattaches it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	needs := cfg.Method.Needs()
	needs.Parallelism = cfg.Opts.Parallelism
	sp, err := fusion.BuildSharded(cfg.DS, cfg.Snap, nil, cfg.Spec, cfg.Lo, cfg.Hi, needs, 0)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		cfg:     cfg,
		storeFP: fmt.Sprintf("%s+dist[%d,%d)/%d", cfg.Fingerprint, cfg.Lo, cfg.Hi, cfg.Spec.Shards),
		Srv:     serve.NewServer(),
		sp:      sp,
		day:     cfg.Snap.Day,
		label:   cfg.Snap.Label,
	}
	w.publishTopology(0)
	if cfg.Store != nil {
		run, err := cfg.Store.LoadCurrent()
		if err != nil {
			return nil, fmt.Errorf("dist: worker %d store: %w", cfg.Index, err)
		}
		if run != nil && run.Fingerprint == w.storeFP {
			w.Srv.Swap(serve.FromRun(run))
			w.publishTopology(run.Version)
		}
	}
	return w, nil
}

func (w *Worker) publishTopology(version uint64) {
	w.Srv.SetTopology(serve.Topology{
		Mode:   "distributed",
		Shards: w.cfg.Spec.Shards,
		Kind:   "range",
		Workers: []serve.WorkerStatus{{
			Index:   w.cfg.Index,
			Shards:  [2]int{w.cfg.Lo, w.cfg.Hi},
			Healthy: true,
			Version: version,
		}},
	})
}

// Handler serves the /rpc control plane and delegates everything else
// to the worker's /v1 surface.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /rpc/describe", rpc(w.describe))
	mux.HandleFunc("POST /rpc/init", rpc(w.init))
	mux.HandleFunc("POST /rpc/phase", rpc(w.phase))
	mux.HandleFunc("POST /rpc/minmax", rpc(w.minmax))
	mux.HandleFunc("POST /rpc/rescale", rpc(w.rescale))
	mux.HandleFunc("POST /rpc/fold", rpc(w.fold))
	mux.HandleFunc("POST /rpc/apply", rpc(w.apply))
	mux.HandleFunc("POST /rpc/publish", rpc(w.publish))
	mux.Handle("/", w.Srv.Handler())
	return mux
}

// rpc adapts a typed handler to HTTP: decode the request, run it under
// the worker lock is the handler's business, encode result or error.
func rpc[Req, Resp any](h func(*Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeRPC(w, http.StatusBadRequest, rpcError{Error: "bad request body: " + err.Error()})
			return
		}
		resp, err := h(&req)
		if err != nil {
			writeRPC(w, http.StatusInternalServerError, rpcError{Error: err.Error()})
			return
		}
		writeRPC(w, http.StatusOK, resp)
	}
}

// writeRPC encodes the body before committing the status, so a reply
// JSON cannot carry (a NaN or infinite float) answers an rpcError 500
// instead of a 200 with a truncated body.
func writeRPC(w http.ResponseWriter, status int, body any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(rpcError{Error: "encoding reply: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

func (w *Worker) describe(_ *struct{}) (describeResponse, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return describeResponse{
		Lo:          w.cfg.Lo,
		Hi:          w.cfg.Hi,
		Shards:      w.cfg.Spec.Shards,
		NumItems:    w.cfg.Spec.NumItems,
		NumSources:  len(w.cfg.DS.Sources),
		NumAttrs:    len(w.cfg.DS.Attrs),
		Method:      w.cfg.Method.Name(),
		Fingerprint: w.cfg.Fingerprint,
		Day:         w.day,
		Label:       w.label,
		CPS:         w.sp.ClaimsPerSource,
	}, nil
}

func (w *Worker) init(req *initRequest) (struct{}, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	opts := fusion.Options{
		Parallelism: w.cfg.Opts.Parallelism,
		MaxRounds:   req.MaxRounds,
		Epsilon:     req.Epsilon,
		NFalse:      req.NFalse,
		SimWeight:   req.SimWeight,
	}
	exec, err := fusion.NewDistExec(w.sp, w.cfg.Method, opts, req.CPS)
	if err != nil {
		return struct{}{}, err
	}
	w.exec = exec
	return struct{}{}, nil
}

func (w *Worker) running() (*fusion.DistExec, error) {
	if w.exec == nil {
		return nil, fmt.Errorf("dist: worker %d has no initialized run (init first)", w.cfg.Index)
	}
	return w.exec, nil
}

func (w *Worker) phase(req *phaseRequest) (struct{}, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, err := w.running()
	if err != nil {
		return struct{}{}, err
	}
	return struct{}{}, e.Phase(req.Step, req.Trust, req.ByKey)
}

func (w *Worker) minmax(req *minmaxRequest) (minmaxResponse, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, err := w.running()
	if err != nil {
		return minmaxResponse{}, err
	}
	lo, hi, err := e.MinMax(req.Space)
	if lo > hi {
		return minmaxResponse{Empty: true}, err
	}
	return minmaxResponse{Lo: lo, Hi: hi}, err
}

func (w *Worker) rescale(req *rescaleRequest) (struct{}, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, err := w.running()
	if err != nil {
		return struct{}{}, err
	}
	return struct{}{}, e.Rescale(req.Space, req.Lo, req.Hi)
}

func (w *Worker) fold(req *foldRequest) (foldResponse, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, err := w.running()
	if err != nil {
		return foldResponse{}, err
	}
	acc, err := e.Fold(req.Fold, req.Trust, req.ByKey, req.Acc)
	return foldResponse{Acc: acc}, err
}

func (w *Worker) apply(req *applyRequest) (applyResponse, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, dl := range req.Deltas {
		if dl == nil {
			return applyResponse{}, fmt.Errorf("dist: worker %d: nil delta in apply", w.cfg.Index)
		}
		// The sorted flag is unexported and lost on the wire; Split
		// preserves Diff order per shard, so restore it after decode.
		dl.MarkSorted()
	}
	// The engine's per-shard advance: the owned shards are maintained
	// with UpdateProblem, and a failing delta leaves w.sp as it was.
	next, _, err := w.sp.Advance(w.cfg.DS, req.Deltas, w.cfg.Opts.Parallelism, false)
	if err != nil {
		return applyResponse{}, fmt.Errorf("dist: worker %d: %w", w.cfg.Index, err)
	}
	w.sp = &next
	w.exec = nil // scores are per-run state; the coordinator re-inits
	w.day, w.label = req.Deltas[0].ToDay, req.Deltas[0].ToLabel
	return applyResponse{Day: w.day, Label: w.label, CPS: w.sp.ClaimsPerSource}, nil
}

func (w *Worker) publish(req *publishRequest) (publishResponse, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, err := w.running()
	if err != nil {
		return publishResponse{}, err
	}
	res := e.LocalResult(req.Trust, req.AttrTrust, req.Rounds, req.Converged)
	answers := fusion.AnswersForSharded(w.cfg.DS, w.sp, res)
	roster := fusion.DefaultRoster(w.cfg.DS)
	v := serve.NewView(serve.View{
		Version:     req.Version,
		Method:      w.cfg.Method.Name(),
		Fingerprint: w.storeFP,
		Day:         req.Day,
		Label:       req.Label,
		CreatedUnix: req.CreatedUnix,
		SourceIDs:   roster,
		SourceNames: w.cfg.DS.SourceNames(roster),
		Trust:       req.Trust,
		AttrTrust:   req.AttrTrust,
		Answers:     answers,
		Posteriors:  res.Posteriors,
	})
	if w.cfg.Store != nil {
		if err := w.cfg.Store.SaveAt(v.Run(req.CreatedUnix), req.Version); err != nil {
			return publishResponse{}, fmt.Errorf("dist: worker %d persisting run: %w", w.cfg.Index, err)
		}
	}
	w.Srv.Swap(v)
	w.publishTopology(req.Version)
	return publishResponse{Version: req.Version}, nil
}
