package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
)

// workload is one traffic mix over one world.
// Why each one exists is in README.md and BENCHMARK.json.
type workload struct {
	name string
	// op names the headline operation, whose latency op_p50_ms and
	// op_tail_ms report: "advance" or a request route. side names the
	// route side_p50_ms and side_tail_ms report.
	op, side string
	// fleet starts a 2-worker distributed stack beside the flat one.
	fleet bool
	// world generates the input from the seed.
	world func(seed int64, sc scale) (*world, error)
	// phase drives the traffic for d; t is nil in untraced runs.
	phase func(r *runner, d time.Duration, t *Tracer) (*phase, error)
}

var workloads = []*workload{
	{
		name: "stock-daily", op: "advance", side: "read",
		world: func(_ int64, sc scale) (*world, error) { return stockWorld(sc, true) },
		phase: dailyPhase,
	},
	{
		name: "lowchurn-daily", op: "advance", side: "read",
		world: lowChurnWorld,
		phase: dailyPhase,
	},
	{
		name: "read-mix", op: "read", side: "routed", fleet: true,
		world: func(_ int64, sc scale) (*world, error) { return stockWorld(sc, false) },
		phase: readMixPhase,
	},
	{
		name: "live-ingest", op: "write", side: "read",
		world: flightWorld,
		phase: ingestPhase,
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// runner carries one workload run's state.
type runner struct {
	o    *options
	seed int64
	w    *world
	s    *system
	fl   *fleet
	// pipe, when set, carries the advances instead of the Refresher.
	pipe *pipeline
	// cur is the snapshot the engine reflected lag advances ago. Stock
	// replays its lag only when a check needs the snapshot, so the phase
	// spends no time on it; day is the next Stock delta.
	cur *model.Snapshot
	lag int
	day int
}

// phase is what one phase measured.
type phase struct {
	// advances holds the advance latencies; tracedAdvances those of the
	// traced ones, every other advance of a traced run.
	advances, tracedAdvances []time.Duration
	attempted, failed        int
	firstFailure             string
	// streams are the open-loop streams' results by name.
	streams map[string]*Result
	// adv holds the traced advances' extra measurements.
	adv  []advanceStats
	proc procStats
}

func (ph *phase) addStreams(res map[string]*Result) {
	names := make([]string, 0, len(res))
	for name := range res {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := res[name]
		ph.streams[name] = r
		ph.attempted += r.Attempted
		ph.failed += r.Failed
		if ph.firstFailure == "" {
			ph.firstFailure = r.FirstFailure
		}
	}
}

// lat returns the latencies of route, "advance" or a request route, over
// every stream: the untraced operations', or with traced set the traced
// ones'.
func (ph *phase) lat(route string, traced bool) []time.Duration {
	if route == "advance" {
		if traced {
			return ph.tracedAdvances
		}
		return ph.advances
	}
	var out []time.Duration
	for _, res := range ph.streams {
		if traced {
			out = append(out, res.tracedLat(route)...)
		} else {
			out = append(out, res.Lat[route]...)
		}
	}
	return out
}

// stop tears down what the run started.
func (r *runner) stop() {
	if r.fl != nil {
		r.fl.stop()
	}
	if r.s != nil {
		r.s.stop()
	}
}

// snapshot returns the snapshot the engine currently reflects. It replays
// every advance rather than taking the generated day, because Diff treats
// 0 and -0 as equal and so the cycled snapshot can differ from the
// generated one in the sign of a zero.
func (r *runner) snapshot() (*model.Snapshot, error) {
	if r.s.ing != nil {
		return r.s.ing.Base(), nil
	}
	for ; r.lag > 0; r.lag-- {
		n := len(r.w.deltas)
		var err error
		if r.cur, err = r.cur.Apply(r.w.deltas[((r.day-r.lag)%n+n)%n]); err != nil {
			return nil, err
		}
	}
	return r.cur, nil
}

// load has the load process run streams for d and checks each sampled
// point response against the view lookup returns for its ETag. In a
// traced phase the client spans join t.
func (r *runner) load(d time.Duration, t *Tracer, lookup func(etag string) *serve.View, streams ...stream) (map[string]*Result, error) {
	for i := range streams {
		if t != nil {
			streams[i].IDBase = t.ID() << 32
		}
	}
	spec := &loadSpec{Seed: r.seed, Seconds: d.Seconds(), Traced: t != nil,
		Objects: r.w.objects, Writes: r.w.writes, Streams: streams}
	res, err := r.o.load.run(spec, func(s *sample) error {
		v := lookup(s.ETag)
		if v == nil {
			return fmt.Errorf("%s: point response for %s carries ETag %s of no recent view", s.Stream, s.Key, s.ETag)
		}
		return checkPoint(v, s.Key, s.Body)
	})
	if err != nil {
		return nil, err
	}
	for _, rs := range res {
		for id, c := range rs.Spans {
			t.Add(Span{ID: id, Op: id, Name: "client." + c.Route,
				Start: t.Since(time.Unix(0, c.Due)), End: t.Since(time.Unix(0, c.End))})
		}
	}
	return res, nil
}

// dailyPhase runs advances back to back for d: through Refresher.Apply,
// or, in a traced run, through the decomposed pipeline with every other
// advance traced. Meanwhile one connection sends point reads at 200 req/s.
func dailyPhase(r *runner, d time.Duration, t *Tracer) (*phase, error) {
	ph := &phase{streams: map[string]*Result{}}
	var reads map[string]*Result
	var readErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads, readErr = r.load(d, t, r.s.views.get,
			stream{Name: "read", URL: r.s.http.url, Rate: 200, Workers: 1, Salt: 1, Point: "read"})
	}()
	var loopErr error
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		var dl *model.Delta
		if r.w.deltas != nil {
			dl = r.w.deltas[r.day]
		} else {
			dl = r.w.churn.next(r.cur)
		}
		var at *Tracer
		if ph.attempted%2 == 1 {
			at = t
		}
		began := time.Now()
		var err error
		if r.pipe == nil {
			var v *serve.View
			if v, _, err = r.s.ref.Apply(dl); err == nil {
				r.s.views.add(v)
			}
		} else {
			var as advanceStats
			if _, as, err = r.pipe.advance(at, dl); err == nil && at != nil {
				ph.adv = append(ph.adv, as)
			}
		}
		lat := time.Since(began)
		ph.attempted++
		if err != nil {
			ph.failed++
			ph.firstFailure = err.Error()
			break
		}
		if at != nil {
			ph.tracedAdvances = append(ph.tracedAdvances, lat)
		} else {
			ph.advances = append(ph.advances, lat)
		}
		switch {
		case r.pipe != nil:
			r.cur = r.pipe.snap
		case r.w.deltas != nil:
			r.lag++
		default:
			r.cur, err = r.cur.Apply(dl)
		}
		if r.w.deltas != nil {
			r.day = (r.day + 1) % len(r.w.deltas)
		}
		if err == nil && r.s.st != nil {
			err = r.s.st.Prune(8)
		}
		if err != nil {
			loopErr = err
			break
		}
	}
	wg.Wait()
	if loopErr != nil {
		return nil, loopErr
	}
	if readErr != nil {
		return nil, readErr
	}
	ph.addStreams(reads)
	return ph, nil
}

// readMixPhase sends the flat read mix for 60% of d, then routed point
// reads for the rest. The mix is 95% point reads, 4.5% trust and 0.5% full
// table at 2,000 req/s: point reads on one connection, trust and table on
// the other, so a point read never waits on the client side behind a 2MB
// table body; it still competes with it for the server's CPU. The table
// is every 11th request of its connection, odd, so that a traced run
// traces half of them.
func readMixPhase(r *runner, d time.Duration, t *Tracer) (*phase, error) {
	ph := &phase{streams: map[string]*Result{}}
	flat := r.s.srv.View()
	fixed := func(string) *serve.View { return flat }
	res, err := r.load(d*6/10, t, fixed,
		stream{Name: "read", URL: r.s.http.url, Rate: 1900, Workers: 1, Salt: 3, Point: "read"},
		stream{Name: "trust+table", URL: r.s.http.url, Rate: 100, Workers: 1, Salt: 2, TableEvery: 11, Trust: true})
	if err != nil {
		return nil, err
	}
	ph.addStreams(res)
	if res, err = r.load(d*4/10, t, fixed,
		stream{Name: "routed", URL: r.fl.url, Rate: 1000, Workers: 2, Salt: 4, Point: "routed"}); err != nil {
		return nil, err
	}
	ph.addStreams(res)
	return ph, nil
}

// ingestPhase sends awaited claim batches from one connection, 16 a
// second, and revalidating point reads from another. At 25 a second, on a
// box running 1.5x slower than the reference one, a flush took 30ms of
// the 40ms between writes, and a few seconds of a busy host left a
// backlog that held write p50 above 9s for the rest of the run.
func ingestPhase(r *runner, d time.Duration, t *Tracer) (*phase, error) {
	ph := &phase{streams: map[string]*Result{}}
	var pruneErr error
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	// Every flush saves a run; pruning beside the writes keeps the store
	// at a steady size, as the daily workloads keep theirs.
	go func() {
		defer wg.Done()
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := r.s.st.Prune(8); err != nil && pruneErr == nil {
					pruneErr = err
				}
			}
		}
	}()
	res, err := r.load(d, t, r.s.views.get,
		stream{Name: "write", URL: r.s.http.url, Rate: 16, Workers: 1, Write: true},
		stream{Name: "read", URL: r.s.http.url, Rate: 500, Workers: 1, Salt: 6, Point: "read", Revalidate: true})
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if pruneErr != nil {
		return nil, pruneErr
	}
	ph.addStreams(res)
	return ph, nil
}
