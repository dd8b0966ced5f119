package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	td "truthdiscovery"
	"truthdiscovery/internal/dist"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
	"truthdiscovery/internal/store"
)

// planner is truthserved's default: auto planning at tolerance 0.
func planner() *fusion.Planner { return &fusion.Planner{Mode: fusion.PlannerAuto} }

// fingerprint is the run fingerprint truthserved stamps on a world.
func fingerprint(w *world) string {
	return td.FuseOptions{Planner: planner()}.Fingerprint(w.method) + "@" + w.day0.Digest() + "/" + w.ds.ToleranceDigest()
}

// system is one serving stack built the way cmd/truthserved builds it:
// NewEngine, NewRefresher, Publish, NewIngester and Server.Handler on a
// loopback listener.
type system struct {
	w        *world
	fp       string
	srv      *serve.Server
	ref      *serve.Refresher
	st       *store.Store
	storeDir string
	ing      *serve.Ingester
	applier  *timedApplier
	http     *httpServer
	tracer   atomic.Pointer[Tracer]
	views    *viewRing
}

// startSystem builds and starts the stack; the set-up metric times it.
// dir holds the store, when the world has one.
func startSystem(w *world, fp, dir string) (*system, error) {
	s := &system{w: w, fp: fp, srv: serve.NewServer(), views: newViewRing()}
	if err := s.start(dir); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *system) start(dir string) error {
	w := s.w
	if w.store {
		var err error
		if s.storeDir, err = os.MkdirTemp(dir, "store-"); err != nil {
			return err
		}
		if s.st, err = store.Open(s.storeDir); err != nil {
			return err
		}
	}
	eng, err := serve.NewEngine(w.ds, w.day0, nil, w.method, serve.EngineOptions{Planner: planner()})
	if err != nil {
		return err
	}
	s.ref = serve.NewRefresher(w.ds, eng, s.srv, s.st, s.fp, w.day0.Day, w.day0.Label, fusion.Options{})
	v, err := s.ref.Publish()
	if err != nil {
		return err
	}
	s.views.add(v)
	if w.writes != nil {
		s.applier = &timedApplier{inner: s.ref, tr: &s.tracer, onView: s.views.add}
		// truthserved's default batching window.
		s.ing = serve.NewIngester(w.ds, s.applier, w.day0, serve.IngestConfig{
			MaxBatch: 256, MaxAge: 250 * time.Millisecond,
		})
		s.ing.Start()
		s.srv.SetIngester(s.ing)
	}
	s.http, err = listen(tracedHandler(&s.tracer, "serve.handler", false, s.srv.Handler()))
	return err
}

// httpServer is a handler served on a loopback port.
type httpServer struct {
	url    string
	hs     *http.Server
	served chan struct{}
}

// serveOn serves h on a loopback port.
func serveOn(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, served: make(chan struct{})}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return s, nil
}

// listen is serveOn plus a health check, so it returns once the listener
// accepts and the server answers.
func listen(h http.Handler) (*httpServer, error) {
	s, err := serveOn(h)
	if err != nil {
		return nil, err
	}
	resp, err := http.Get(s.url + "/v1/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the server down and waits for it.
func (s *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.served
}

// stop tears the stack down and removes its store.
func (s *system) stop() {
	if s.http != nil {
		s.http.stop()
	}
	if s.ing != nil {
		_ = s.ing.Close()
	}
	if s.storeDir != "" {
		os.RemoveAll(s.storeDir)
	}
}

// viewRing remembers the last few published views so a sampled point
// response can be checked against the version that produced it.
type viewRing struct {
	mu    sync.Mutex
	views map[string]*serve.View
	order []string
}

func newViewRing() *viewRing { return &viewRing{views: make(map[string]*serve.View)} }

const viewRingSize = 16

func (r *viewRing) add(v *serve.View) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.views[v.ETag()] = v
	r.order = append(r.order, v.ETag())
	if len(r.order) > viewRingSize {
		delete(r.views, r.order[0])
		r.order = r.order[1:]
	}
}

func (r *viewRing) get(etag string) *serve.View {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.views[etag]
}

// pipeline is the advance the Refresher runs, called one layer at a time
// so each layer gets a span: Snapshot.Apply, UpdateProblem, Method.Run,
// AnswersFor, NewView, Store.Save and Server.Swap.
type pipeline struct {
	s     *system
	m     fusion.Method
	needs fusion.BuildOptions
	snap  *model.Snapshot
	prob  *fusion.Problem
	// start, first and firstView record the pipeline's first advances,
	// which checkPipeline replays through a Refresher.
	start     *model.Snapshot
	first     []*model.Delta
	firstView *serve.View
}

// pipelineChecked is how many of the pipeline's first advances are
// replayed through a Refresher and compared.
const pipelineChecked = 3

// newPipeline starts a pipeline at snap, building its problem cold.
func newPipeline(s *system, snap *model.Snapshot) *pipeline {
	m, _ := fusion.ByName(s.w.method) // the engine already resolved it
	return &pipeline{s: s, m: m, needs: m.Needs(), snap: snap, start: snap,
		prob: fusion.Build(s.w.ds, snap, nil, m.Needs())}
}

// advanceStats is what one traced advance measured beyond its spans.
type advanceStats struct {
	dirty, items int
	allocs       uint64
	runBytes     int64
	rounds       int
}

// advance moves the pipeline across dl and serves the result. With a nil
// tracer it records nothing and measures nothing beyond the advance.
func (p *pipeline) advance(t *Tracer, dl *model.Delta) (*serve.View, advanceStats, error) {
	var as advanceStats
	op := t.ID()
	start := time.Now()
	var next *model.Snapshot
	var err error
	t.Time("model.apply", op, op, func() { next, err = p.snap.Apply(dl) })
	if err != nil {
		return nil, as, err
	}
	var prob *fusion.Problem
	var rebuilt []int
	var before uint64
	if t != nil {
		before = mallocs()
	}
	t.Time("fusion.update", op, op, func() {
		prob, rebuilt = fusion.UpdateProblem(p.s.w.ds, next, p.prob, dl.DirtyItems(), p.needs)
	})
	if t != nil {
		as.allocs = mallocs() - before
	}
	as.dirty, as.items = len(rebuilt), len(prob.Items)
	var res *fusion.Result
	t.Time("fusion.run", op, op, func() { res = p.m.Run(prob, fusion.Options{}) })
	as.rounds = res.Rounds
	var answers []fusion.Answer
	t.Time("fusion.answers", op, op, func() { answers = fusion.AnswersFor(p.s.w.ds, prob, res) })
	var v *serve.View
	t.Time("serve.view", op, op, func() { v = newView(p.s, next, prob.SourceIDs, res, answers) })
	if st := p.s.st; st != nil {
		t.Time("store.save", op, op, func() { v.Version, err = st.Save(v.Run(v.CreatedUnix)) })
		if err != nil {
			return nil, as, err
		}
		if t != nil {
			// internal/store names each run file run-<16 hex digits>.tdr.
			if fi, err := os.Stat(filepath.Join(st.Dir(), fmt.Sprintf("run-%016x.tdr", v.Version))); err == nil {
				as.runBytes = fi.Size()
			}
		}
	} else {
		v.Version = p.s.srv.View().Version + 1
	}
	t.Time("serve.swap", op, op, func() { p.s.srv.Swap(v) })
	t.Add(Span{ID: op, Op: op, Name: "advance", Start: t.Since(start), End: t.Since(time.Now())})
	p.snap, p.prob = next, prob
	p.s.views.add(v)
	if len(p.first) < pipelineChecked {
		p.first, p.firstView = append(p.first, dl), v
	}
	return v, as, nil
}

// checkPipeline replays the pipeline's first advances through a fresh
// Refresher and checks that both served bit-identical answers and trust.
func checkPipeline(p *pipeline) error {
	if len(p.first) == 0 {
		return nil
	}
	w := p.s.w
	eng, err := serve.NewEngine(w.ds, p.start, nil, w.method, serve.EngineOptions{Planner: planner()})
	if err != nil {
		return err
	}
	ref := serve.NewRefresher(w.ds, eng, nil, nil, p.s.fp, p.start.Day, p.start.Label, fusion.Options{})
	var v *serve.View
	for _, dl := range p.first {
		if v, _, err = ref.Apply(dl); err != nil {
			return fmt.Errorf("replaying the decomposed advances through a Refresher: %w", err)
		}
	}
	if err := sameAnswers(p.firstView.Answers, v.Answers); err != nil {
		return fmt.Errorf("decomposed advance differs from Refresher.Apply: %w", err)
	}
	if err := sameResult(p.firstView.Trust, p.firstView.AttrTrust, v.Trust, v.AttrTrust); err != nil {
		return fmt.Errorf("decomposed advance trust differs from Refresher.Apply: %w", err)
	}
	return nil
}

// newView renders a result the way the Refresher does.
func newView(s *system, snap *model.Snapshot, roster []model.SourceID, res *fusion.Result, answers []fusion.Answer) *serve.View {
	names := make([]string, len(roster))
	for i, id := range roster {
		names[i] = s.w.ds.Sources[id].Name
	}
	return serve.NewView(serve.View{
		Method: s.w.method, Fingerprint: s.fp, Day: snap.Day, Label: snap.Label,
		CreatedUnix: time.Now().Unix(), SourceIDs: roster, SourceNames: names,
		Trust: res.Trust, AttrTrust: res.AttrTrust, Answers: answers, Posteriors: res.Posteriors,
	})
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// coldPublish times the layers of a from-scratch publish of snap: Build,
// Run, AnswersFor and NewView.
type coldPublish struct {
	build, run, answers, view time.Duration
	allocs                    uint64
	rounds                    int
}

func timeColdPublish(s *system, snap *model.Snapshot) coldPublish {
	var c coldPublish
	m, _ := fusion.ByName(s.w.method)
	start := time.Now()
	before := mallocs()
	p := fusion.Build(s.w.ds, snap, nil, m.Needs())
	c.allocs = mallocs() - before
	c.build = time.Since(start)
	start = time.Now()
	res := m.Run(p, fusion.Options{})
	c.run, c.rounds = time.Since(start), res.Rounds
	start = time.Now()
	answers := fusion.AnswersFor(s.w.ds, p, res)
	c.answers = time.Since(start)
	start = time.Now()
	newView(s, snap, p.SourceIDs, res, answers)
	c.view = time.Since(start)
	return c
}

// fleet is a two-worker distributed stack serving the same world:
// dist workers on loopback listeners behind serve.Router, driven by a
// dist.Coordinator.
type fleet struct {
	url     string
	servers []*httpServer
}

const fleetWorkers = 2

func startFleet(s *system) (*fleet, error) {
	fl := &fleet{}
	if err := fl.start(s); err != nil {
		fl.stop()
		return nil, err
	}
	return fl, nil
}

func (fl *fleet) start(s *system) error {
	w := s.w
	m, _ := fusion.ByName(w.method)
	spec := model.RangeShards(fleetWorkers, w.day0.NumItems())
	bounds := []int{0, 1, 2}
	addrs := make([]string, fleetWorkers)
	peers := make([]*dist.PeerClient, fleetWorkers)
	for i := range addrs {
		wk, err := dist.NewWorker(dist.WorkerConfig{
			DS: w.ds, Snap: w.day0, Spec: spec, Lo: bounds[i], Hi: bounds[i+1], Index: i,
			Method: m, Fingerprint: s.fp,
		})
		if err != nil {
			return err
		}
		// A worker answers no health check until the coordinator has
		// published to it, so it is served without one.
		srv, err := serveOn(tracedHandler(&s.tracer, "worker.handler", true, wk.Handler()))
		if err != nil {
			return err
		}
		fl.servers = append(fl.servers, srv)
		addrs[i], peers[i] = srv.url, dist.NewPeerClient(srv.url)
	}
	rt, err := serve.NewRouter(w.ds, spec, bounds, addrs)
	if err != nil {
		return err
	}
	coord := dist.NewCoordinator(dist.CoordinatorConfig{
		DS: w.ds, Spec: spec, Method: m, Fingerprint: s.fp,
		Base: w.day0, Srv: rt.Server(), OnPublish: rt.SetWorkerVersion,
	}, peers)
	if err := coord.Init(); err != nil {
		return err
	}
	if _, err := coord.RunAndPublish(); err != nil {
		return err
	}
	front, err := listen(tracedHandler(&s.tracer, "route.handler", false, rt.Handler()))
	if err != nil {
		return err
	}
	fl.url, fl.servers = front.url, append(fl.servers, front)
	return nil
}

func (fl *fleet) stop() {
	for _, srv := range fl.servers {
		srv.stop()
	}
}
