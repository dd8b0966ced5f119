package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/store"
)

// Refresher is the background half of the serving layer: it owns the
// incremental fusion engine, and for each day's delta it advances the
// engine, persists the new run to the store, and swaps the server's view.
// Queries keep hitting the old view until the swap — the pipeline never
// blocks a reader.
//
// A Refresher serializes its writers internally: Publish, Resume and
// Apply take one mutex, so the daily delta loop and a live claim-ingest
// flusher can share it without coordination (the server side is
// lock-free regardless).
type Refresher struct {
	// mu serializes Publish/Resume/Apply — at most one engine advance or
	// view publication at a time.
	mu sync.Mutex

	DS     *model.Dataset
	Engine *Engine
	Server *Server
	// Store, when non-nil, receives one persisted run per published view
	// and assigns the view versions. Without a store, versions count up
	// from 1 in memory.
	Store *store.Store
	// Fingerprint identifies the method/options configuration
	// (truthdiscovery.FuseOptions.Fingerprint); stamped on every run.
	Fingerprint string
	// Opts are the fusion options every Advance uses.
	Opts fusion.Options

	// day/label track the snapshot identity the engine currently
	// reflects; Apply moves them to the delta's target.
	day     int
	label   string
	version uint64 // last published version (store-less mode)
}

// NewRefresher wires a refresher whose engine currently reflects the
// given snapshot identity (day0 of the stream). eng may be nil for a
// store-only server that will Resume a persisted run and never refresh
// (Publish and Apply then return errors instead of fusing).
func NewRefresher(ds *model.Dataset, eng *Engine, srv *Server, st *store.Store,
	fingerprint string, day int, label string, opts fusion.Options) *Refresher {
	return &Refresher{
		DS: ds, Engine: eng, Server: srv, Store: st,
		Fingerprint: fingerprint, Opts: opts, day: day, label: label,
	}
}

// viewNow renders the engine's current state as an unversioned view.
func (r *Refresher) viewNow() *View {
	answers, res := r.Engine.Current(r.DS)
	roster := r.Engine.Roster()
	return NewView(View{
		Method:      r.Engine.Method(),
		Fingerprint: r.Fingerprint,
		Day:         r.day,
		Label:       r.label,
		CreatedUnix: time.Now().Unix(),
		SourceIDs:   roster,
		SourceNames: r.DS.SourceNames(roster),
		Trust:       res.Trust,
		AttrTrust:   res.AttrTrust,
		Answers:     answers,
		Posteriors:  res.Posteriors,
	})
}

// publish persists a view (when a store is configured), stamps its
// version, and swaps it into the server.
func (r *Refresher) publish(v *View) (*View, error) {
	if r.Store != nil {
		run := v.Run(v.CreatedUnix)
		version, err := r.Store.Save(run)
		if err != nil {
			return nil, fmt.Errorf("serve: persisting run: %w", err)
		}
		v.Version = version
	} else {
		r.version++
		v.Version = r.version
	}
	v.etag = store.ETag(v.Version)
	if r.Server != nil {
		r.Server.Swap(v)
	}
	return v, nil
}

// Publish renders, persists and serves the engine's current state — the
// first version of a fresh stream.
func (r *Refresher) Publish() (*View, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Engine == nil {
		return nil, fmt.Errorf("serve: refresher has no engine (store-only resume); nothing to publish")
	}
	return r.publish(r.viewNow())
}

// Resume serves an already persisted run without re-fusing, after
// checking it matches the refresher's configuration — the fingerprint
// AND the snapshot day the engine currently reflects. The day check is
// what keeps a later Apply honest: an engine at day 0 fed a run from day
// 2 would accept the day-2→3 delta and swap in answers that are the Fuse
// of no real snapshot. Callers resuming mid-stream must fast-forward the
// engine to the run's day first (cmd/truthserved does).
func (r *Refresher) Resume(run *store.Run) (*View, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if run.Fingerprint != r.Fingerprint {
		return nil, fmt.Errorf("serve: stored run %d has fingerprint %s, want %s (different method/options); refuse to serve it",
			run.Version, run.Fingerprint, r.Fingerprint)
	}
	if run.Day != r.day {
		return nil, fmt.Errorf("serve: stored run %d reflects day %d (%s), but the engine is at day %d (%s); fast-forward the engine or re-fuse",
			run.Version, run.Day, run.Label, r.day, r.label)
	}
	v := FromRun(run)
	r.label = v.Label
	r.version = v.Version
	if r.Server != nil {
		r.Server.Swap(v)
	}
	return v, nil
}

// The refresher is the in-process Applier behind the ingest flush path;
// the distributed coordinator (internal/dist) is the other one.
var _ Applier = (*Refresher)(nil)

// Apply advances the engine over one delta, persists the new run and
// swaps the served view. The delta must continue the engine's stream
// (its FromDay is the day of the currently served state).
func (r *Refresher) Apply(dl *model.Delta) (*View, fusion.IncrementalStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Engine == nil {
		return nil, fusion.IncrementalStats{}, fmt.Errorf("serve: refresher has no engine (store-only resume); cannot apply deltas")
	}
	if dl.FromDay != r.day {
		return nil, fusion.IncrementalStats{}, fmt.Errorf(
			"serve: delta advances day %d, but the engine is at day %d", dl.FromDay, r.day)
	}
	stats, err := r.Engine.Advance(r.DS, dl, r.Opts)
	if err != nil {
		return nil, stats, err
	}
	r.day, r.label = dl.ToDay, dl.ToLabel
	v, err := r.publish(r.viewNow())
	if err == nil && v != nil && stats.Plan != nil && r.Server != nil {
		r.Server.RecordPlan(PlannerDecision{
			Version:  v.Version,
			Day:      r.day,
			Path:     string(stats.Plan.Path),
			Layout:   string(stats.Plan.Layout),
			Forced:   stats.Plan.Forced,
			Fallback: stats.Fallback,
			Reason:   stats.Plan.Reason,
			Features: stats.Plan.Features,
		})
	}
	return v, stats, err
}

// Run consumes deltas until the channel closes or the context ends,
// applying each in order. The first error stops the loop (the server
// keeps serving the last good view).
func (r *Refresher) Run(ctx context.Context, deltas <-chan *model.Delta) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case dl, ok := <-deltas:
			if !ok {
				return nil
			}
			if _, _, err := r.Apply(dl); err != nil {
				return err
			}
		}
	}
}
