// Package serve exposes persisted fusion results over HTTP: the paper's
// fused answer table ("what is this stock's price right now?") behind the
// query API the daily pipeline feeds. The server holds one immutable View
// in an atomic pointer — reads never lock — and a Refresher advances the
// underlying incremental engine over the day's delta, persists the new
// version to an internal/store, and swaps the pointer.
package serve

import (
	"bytes"
	"fmt"
	"sync"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/store"
)

// View is one immutable, fully indexed serving snapshot: a persisted run
// plus the per-object lookup index. Views are never mutated after
// NewView, and every served view is built by it; the server swaps whole
// pointers.
type View struct {
	Version     uint64
	Method      string
	Fingerprint string
	Day         int
	Label       string
	CreatedUnix int64

	SourceIDs   []model.SourceID
	SourceNames []string
	Trust       []float64
	AttrTrust   [][]float64
	Answers     []fusion.Answer
	Posteriors  [][]float64

	// byObject maps an object key to the indices of its answers (one per
	// attribute), in answer order.
	byObject map[string][]int32

	// etag caches the version-keyed entity tag (store.ETag of Version).
	// publish and FromRun set it once the version is known; views built
	// by hand leave it empty and ETag derives it on demand.
	etag string

	// table is the full-table body, rendered on first read (see
	// tableBody).
	table *storedTable
}

// storedTable is a view's GET /v1/answers body: the first read renders
// it, every later read writes the same bytes. It sits behind a pointer
// because NewView takes its View by value and a sync.Once must not be
// copied.
type storedTable struct {
	once sync.Once
	body []byte
	err  error
}

// NewView indexes a view; every slice is retained, not copied, and must
// not be mutated afterwards. The view gets its own, not yet rendered,
// table body, so a copy of a served view never serves the source's.
func NewView(v View) *View {
	v.byObject = make(map[string][]int32, len(v.Answers))
	for i := range v.Answers {
		key := v.Answers[i].ObjectKey
		v.byObject[key] = append(v.byObject[key], int32(i))
	}
	v.table = new(storedTable)
	return &v
}

// tableBody returns the wire body of the full answer table, rendering
// it on the first call; concurrent first callers wait for that one
// render. A render failure (a NaN or ±Inf answer) is kept like a body,
// so every read of the view fails the same way. Rendering at publish
// instead would charge every advance for a table that may never be read.
func (v *View) tableBody() ([]byte, error) {
	t := v.table
	t.once.Do(func() {
		body, err := answersBody(v, len(v.Answers), func(k int) answerJSON { return answerToJSON(&v.Answers[k]) })
		// The body lives as long as the view: keep it at its exact size,
		// not at the encoder's estimate.
		t.body, t.err = bytes.Clone(body), err
	})
	return t.body, t.err
}

// ETag returns the strong entity tag of the view — purely a function of
// the version, so a response body and its ETag can never disagree as
// long as both are read from the same view pointer.
func (v *View) ETag() string {
	if v.etag != "" {
		return v.etag
	}
	return store.ETag(v.Version)
}

// FromRun wraps a persisted run as a serving view.
func FromRun(run *store.Run) *View {
	return NewView(View{
		etag:        store.ETag(run.Version),
		Version:     run.Version,
		Method:      run.Method,
		Fingerprint: run.Fingerprint,
		Day:         run.Day,
		Label:       run.Label,
		CreatedUnix: run.CreatedUnix,
		SourceIDs:   run.SourceIDs,
		SourceNames: run.SourceNames,
		Trust:       run.Trust,
		AttrTrust:   run.AttrTrust,
		Answers:     run.Answers,
		Posteriors:  run.Posteriors,
	})
}

// Run renders the view as a persistable run (the inverse of FromRun).
func (v *View) Run(createdUnix int64) *store.Run {
	return &store.Run{
		Version:     v.Version,
		Method:      v.Method,
		Fingerprint: v.Fingerprint,
		Day:         v.Day,
		Label:       v.Label,
		CreatedUnix: createdUnix,
		SourceIDs:   v.SourceIDs,
		SourceNames: v.SourceNames,
		Trust:       v.Trust,
		AttrTrust:   v.AttrTrust,
		Answers:     v.Answers,
		Posteriors:  v.Posteriors,
	}
}

// ObjectAnswers returns the indices of an object's answers (nil when the
// object is unknown). The returned slice is shared and read-only.
func (v *View) ObjectAnswers(key string) []int32 { return v.byObject[key] }

// EngineOptions mirror the execution knobs of the public FuseOptions
// that configure a serving engine. Except for TrustTolerance (an
// explicitly approximate knob) they are execution choices only —
// answers are bit-identical at any setting.
type EngineOptions struct {
	// Parallelism bounds the fusion worker pool (0 = GOMAXPROCS,
	// 1 = serial).
	Parallelism int
	// Shards > 1 lays the items out over that many range shards; 0 or 1
	// is one shard (the flat layout) unless the planner's arena budget
	// asks for more.
	Shards int
	// MaxResidentShards (with Shards > 1) bounds how many shard arenas
	// stay resident at once (0 = all).
	MaxResidentShards int
	// TrustTolerance > 0 enables the dirty-only warm path on every
	// advance, falling back to the exact full iteration when any source's
	// trust drifts past it. 0 keeps every advance bit-identical to a full
	// Fuse.
	TrustTolerance float64
	// Planner plans each advance's execution path from the delta's
	// measured features (see fusion.Planner; nil plans as the zero
	// Planner, auto mode); its arena budget picks the layout when Shards
	// is unset. The decision lands in every
	// advance's IncrementalStats and is surfaced by /v1/stats.
	Planner *fusion.Planner
}

// Engine is the fusion backend a Refresher advances across the delta
// stream: one fused state over its range shards, one shard being the
// flat layout. Advances are exact (bit-identical to a full Fuse of each
// day's snapshot) unless TrustTolerance opts into the warm path.
type Engine struct {
	st *fusion.State
	// inc are the incremental options (trust tolerance, planner) every
	// Advance runs with.
	inc fusion.IncrementalOptions
}

// NewEngine fuses the snapshot once and wraps the reusable state, laid
// out as fusion.ResolveLayout picks from the options. Options are
// assumed validated (truthdiscovery.FuseOptions.Validate); out-of-range
// shard counts are clamped to one shard.
func NewEngine(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID,
	method string, opts EngineOptions) (*Engine, error) {
	m, ok := fusion.ByName(method)
	if !ok {
		return nil, fmt.Errorf("serve: unknown fusion method %q", method)
	}
	spec, maxResident := fusion.ResolveLayout(snap, opts.Shards, opts.MaxResidentShards, opts.Planner)
	st, err := fusion.NewState(ds, snap, sources, spec, m, fusion.Options{Parallelism: opts.Parallelism}, maxResident)
	if err != nil {
		return nil, err
	}
	return &Engine{st: st, inc: fusion.IncrementalOptions{TrustTolerance: opts.TrustTolerance, Planner: opts.Planner}}, nil
}

// Method returns the fusion method name the engine runs.
func (e *Engine) Method() string { return e.st.Method().Name() }

// Roster returns the fused source roster in dense problem order.
func (e *Engine) Roster() []model.SourceID { return e.st.Sharded.SourceIDs }

// Current renders the engine's present answers and result.
func (e *Engine) Current(ds *model.Dataset) ([]fusion.Answer, *fusion.Result) {
	return e.st.Answers(ds), e.st.Result
}

// Advance moves the engine across one delta.
func (e *Engine) Advance(ds *model.Dataset, dl *model.Delta, opts fusion.Options) (fusion.IncrementalStats, error) {
	next, stats, err := e.st.Advance(ds, dl, opts, e.inc)
	if err != nil {
		return stats, err
	}
	e.st = next
	return stats, nil
}
