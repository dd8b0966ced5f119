// Package dist runs fusion across shard worker processes. Each worker
// owns a contiguous range of the shard spec — its shard snapshots,
// score arenas and (optionally) a store partition — and exposes two
// surfaces over HTTP: the /rpc/ control plane the coordinator drives
// fusion rounds through, and the standard /v1 read API over its local
// answers, which the scatter-gather router (internal/serve.Router)
// fans queries across.
//
// The protocol is a thin JSON mapping of fusion.DistPeer plus the
// lifecycle calls around it (describe, init, apply, publish). Floats
// survive the trip bit-exactly: encoding/json renders float64 in
// shortest-round-trip form, so a distributed run's results are
// bit-identical to flat Fuse at any worker count — the same contract
// the sharded engine keeps in one process.
package dist

import "truthdiscovery/internal/model"

// describeResponse is a worker's self-description: what it owns and
// what state it currently reflects. The coordinator validates the
// fleet's responses against its own world before the first round.
type describeResponse struct {
	Lo          int    `json:"lo"`
	Hi          int    `json:"hi"`
	Shards      int    `json:"shards"`
	NumItems    int    `json:"num_items"`
	NumSources  int    `json:"num_sources"`
	NumAttrs    int    `json:"num_attrs"`
	Method      string `json:"method"`
	Fingerprint string `json:"fingerprint"`
	Day         int    `json:"day"`
	Label       string `json:"label"`
	// CPS is the worker-local per-source claim count; the coordinator
	// sums the fleet's vectors into the global one.
	CPS []int `json:"cps"`
}

// initRequest arms a worker for a fusion run: the globally summed
// per-source claim counts plus every option knob that shapes results.
// (Parallelism stays worker-local — it never changes results.)
type initRequest struct {
	CPS       []int   `json:"cps"`
	MaxRounds int     `json:"max_rounds"`
	Epsilon   float64 `json:"epsilon"`
	NFalse    float64 `json:"n_false"`
	SimWeight float64 `json:"sim_weight"`
}

// phaseRequest broadcasts one per-item phase under the coordinator's
// current trust state.
type phaseRequest struct {
	Step  int         `json:"step"`
	Trust []float64   `json:"trust,omitempty"`
	ByKey [][]float64 `json:"by_key,omitempty"`
}

// minmaxRequest/minmaxResponse gather a score space's local extrema.
type minmaxRequest struct {
	Space int `json:"space"`
}

// Empty marks a worker without scores, whose extrema are the
// (+Inf, -Inf) sentinel JSON cannot carry.
type minmaxResponse struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Empty bool    `json:"empty,omitempty"`
}

// rescaleRequest broadcasts the combined global extrema back.
type rescaleRequest struct {
	Space int     `json:"space"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
}

// foldRequest chains a per-source reduction through the worker: acc
// arrives holding the partial from lower-ranked workers and returns
// with this worker's claims folded in, in global item order.
type foldRequest struct {
	Fold  int         `json:"fold"`
	Trust []float64   `json:"trust,omitempty"`
	ByKey [][]float64 `json:"by_key,omitempty"`
	Acc   [][]float64 `json:"acc"`
}

type foldResponse struct {
	Acc [][]float64 `json:"acc"`
}

// applyRequest advances the worker's owned shards by their slices of a
// split delta (index d - lo of Deltas holds shard d's delta; every
// owned shard gets one, empty deltas included). The worker's executor
// is discarded — scores are per-run state — and the response carries
// the new local claim counts so the coordinator can re-sum and re-init.
type applyRequest struct {
	Deltas []*model.Delta `json:"deltas"`
}

type applyResponse struct {
	Day   int    `json:"day"`
	Label string `json:"label"`
	CPS   []int  `json:"cps"`
}

// publishRequest materializes a finished run on the worker: it renders
// its local answers under the coordinator's final trust state, persists
// them at the coordinator-assigned version (when it has a store), and
// swaps its served view.
type publishRequest struct {
	Version     uint64      `json:"version"`
	Day         int         `json:"day"`
	Label       string      `json:"label"`
	CreatedUnix int64       `json:"created_unix"`
	Rounds      int         `json:"rounds"`
	Converged   bool        `json:"converged"`
	Trust       []float64   `json:"trust,omitempty"`
	AttrTrust   [][]float64 `json:"attr_trust,omitempty"`
}

type publishResponse struct {
	Version uint64 `json:"version"`
}

// rpcError is the control plane's error body (the /v1 surface uses the
// serve envelope; /rpc keeps its own flat shape).
type rpcError struct {
	Error string `json:"error"`
}
