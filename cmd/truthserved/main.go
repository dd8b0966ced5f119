// Command truthserved serves persisted fusion results over HTTP — the
// paper's continuously queried answer table behind the daily pipeline.
//
// It fuses a claim snapshot once at startup (or resumes the current run
// from the store without re-fusing), serves it from an immutable
// atomically swapped view, and — when the input is a multi-day stream —
// refreshes in the background: each day's delta advances the incremental
// engine, the new run is persisted to the store, and the served version
// swaps without ever blocking a reader.
//
//	truthserved -in claims.csv -method AccuPr -addr :8080 -store ./runs
//	truthserved -simulate stock -days 5 -refresh 24h -method AccuFormatAttr
//
// The HTTP surface is versioned under /v1/ (GET /v1/answers,
// /v1/answers/{object}, /v1/trust, /v1/methods, /v1/healthz, /v1/stats;
// the old unprefixed paths answer an enveloped 410 pointing at /v1).
// Answer and trust responses carry a strong ETag keyed on the store
// version, so If-None-Match revalidation costs a 304 until a refresh
// rotates it.
//
// With -workers N the same answers are served by N shard-worker
// processes behind a scatter-gather router: each worker owns a
// contiguous shard range of the item space, the coordinator drives
// fusion rounds over the fleet, and merged reads are bit-identical to
// the single-process server. A crashed worker is respawned and
// reattached automatically; its shard range answers enveloped 503s in
// between.
//
// Single-snapshot worlds (-in, or -simulate -days 1) additionally accept
// live claims on POST /v1/claims: batches of upserts/retractions are
// coalesced and flushed through the same delta/incremental machinery as
// the daily pipeline (-ingest-flush/-ingest-age/-ingest-pending size the
// window and backpressure). Live claims are volatile by design: a
// restart re-fuses from the input file, and the store refuses to resume
// a run whose day lies outside the input stream.
//
// SIGINT/SIGTERM shut down gracefully: in-flight requests drain, any
// pending ingest batch flushes (persisting the final version when a
// store is configured), and the process exits 0.
//
// With -addr host:0 the chosen port is printed on stdout as
// "truthserved: serving on http://host:port".
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	td "truthdiscovery"
	"truthdiscovery/internal/datagen"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
	"truthdiscovery/internal/store"
	"truthdiscovery/internal/value"
)

func main() {
	var (
		method      = flag.String("method", "AccuPr", "fusion method name")
		in          = flag.String("in", "", "claims CSV path ('-' = stdin); single-snapshot mode")
		simulate    = flag.String("simulate", "", "serve a simulated collection instead of -in: stock or flight")
		days        = flag.Int("days", 3, "with -simulate: days in the stream (day 0 serves first, later days refresh)")
		seed        = flag.Int64("seed", 1, "with -simulate: world seed")
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 = ephemeral, printed on stdout)")
		storeDir    = flag.String("store", "", "store directory for persisted runs (empty = serve from memory only)")
		refresh     = flag.Duration("refresh", 24*time.Hour, "delay between delta refreshes (the paper's pipeline is daily)")
		parallel    = flag.Int("parallel", 0, "fusion worker count (0 = GOMAXPROCS, 1 = serial)")
		shards      = flag.Int("shards", 0, "item shards (0/1 = flat engine); answers are bit-identical at any count")
		maxResident = flag.Int("max-resident-shards", 0, "with -shards: shard arenas kept in memory at once (0 = all)")
		plan        = flag.String("plan", "auto", "execution planning per refresh: auto (churn-aware) or a forced path: full, warm, local")
		trustTol    = flag.Float64("trust-tolerance", 0, "enable the approximate dirty-only warm path: max per-source trust drift before falling back to full (0 = exact)")
		ingest      = flag.Bool("ingest", true, "accept live claims on POST /v1/claims (single-snapshot worlds only)")
		ingestFlush = flag.Int("ingest-flush", 256, "flush the pending ingest set at this many distinct (item, source) keys")
		ingestAge   = flag.Duration("ingest-age", 250*time.Millisecond, "flush a non-empty pending ingest set after this age")
		ingestMax   = flag.Int("ingest-pending", 0, "refuse claim batches (429) past this many pending keys (0 = 8 x -ingest-flush)")
		workers     = flag.Int("workers", 0, "spawn this many shard-worker processes behind the scatter-gather router (0 = single process)")
		distWorker  = flag.Int("dist-worker", -1, "internal: run as the shard worker with this fleet index")
		distLo      = flag.Int("dist-lo", 0, "internal: owned shard range start")
		distHi      = flag.Int("dist-hi", 0, "internal: owned shard range end")
	)
	flag.Parse()

	// Validate the flag combination up front, exactly as cmd/fuse does:
	// negative knobs and -max-resident-shards without -shards are usage
	// errors, not silent no-ops.
	var planner *td.Planner
	switch *plan {
	case "auto":
		planner = &td.Planner{Mode: td.PlannerAuto}
	case "full", "warm", "local":
		planner = &td.Planner{Mode: td.PlannerForced, ForcePath: td.AdvanceMode(*plan)}
	default:
		usageError(fmt.Sprintf("-plan must be auto, full, warm or local, got %q", *plan))
	}
	opts := td.FuseOptions{
		Parallelism:       *parallel,
		Shards:            *shards,
		MaxResidentShards: *maxResident,
		TrustTolerance:    *trustTol,
		Planner:           planner,
	}
	if err := opts.Validate(); err != nil {
		usageError(err.Error())
	}
	m, ok := td.MethodByName(*method)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown method %q; available:\n", *method)
		for _, m := range td.Methods() {
			fmt.Fprintf(os.Stderr, "  %s\n", m.Name())
		}
		os.Exit(2)
	}
	if (*in == "") == (*simulate == "") {
		usageError("exactly one of -in or -simulate must be given")
	}
	if *simulate != "" && *simulate != "stock" && *simulate != "flight" {
		usageError(fmt.Sprintf("-simulate must be stock or flight, got %q", *simulate))
	}
	if *days < 1 {
		usageError(fmt.Sprintf("-days must be >= 1, got %d", *days))
	}
	if *refresh <= 0 {
		usageError(fmt.Sprintf("-refresh must be positive, got %s", *refresh))
	}
	if *ingestFlush < 1 {
		usageError(fmt.Sprintf("-ingest-flush must be >= 1, got %d", *ingestFlush))
	}
	if *ingestAge <= 0 {
		usageError(fmt.Sprintf("-ingest-age must be positive, got %s", *ingestAge))
	}
	if *ingestMax < 0 {
		usageError(fmt.Sprintf("-ingest-pending must be >= 0, got %d", *ingestMax))
	}
	if *workers < 0 {
		usageError(fmt.Sprintf("-workers must be >= 0 (0 = single process), got %d", *workers))
	}
	if *workers > 0 {
		if *in == "-" {
			usageError("-workers cannot read claims from stdin (each worker re-reads the input)")
		}
		if *shards > 0 && *shards < *workers {
			usageError(fmt.Sprintf("-shards %d cannot tile across %d workers (need at least one shard each)", *shards, *workers))
		}
		// The fleet honours none of the in-process knobs: every refresh
		// re-runs the full iteration on resident shards, and the workers
		// must fuse a method the round protocol can split.
		if err := fusion.DistCheck(m, fusion.Options{}); err != nil {
			usageError(err.Error())
		}
		if *trustTol != 0 {
			usageError("-trust-tolerance does not apply with -workers (the fleet always re-runs the exact full iteration)")
		}
		if *plan != "auto" && *plan != "full" {
			usageError(fmt.Sprintf("-plan %s does not apply with -workers (the fleet always runs the full path)", *plan))
		}
		if *maxResident > 0 {
			usageError("-max-resident-shards does not apply with -workers (workers keep their shards resident)")
		}
	}

	ds, day0, deltas, err := loadWorld(*in, *simulate, *days, *seed)
	if err != nil {
		fatal(err)
	}

	// The fingerprint couples the method/options digest with the input
	// data's digest AND the tolerance regime: a different CSV in the same
	// store directory, or the same day-0 claims bucketed under tolerances
	// derived from a different collection period (-days), re-fuses
	// instead of serving answers the current configuration would not
	// produce. The distributed fleet shares the same digest, so a worker
	// respawned against a different input refuses to reattach.
	fp := opts.Fingerprint(*method) + "@" + day0.Digest() + "/" + ds.ToleranceDigest()

	// Distributed modes: a worker child builds only its owned shard range
	// and serves the coordinator's control plane; the front process
	// spawns the fleet and serves through the scatter-gather router.
	// Neither returns.
	dcfg := distConfig{
		method: *method, in: *in, simulate: *simulate, days: *days, seed: *seed,
		parallel: *parallel, addr: *addr, storeDir: *storeDir,
		workers: *workers, shards: *shards, refresh: *refresh,
		ingest: *ingest, ingestFlush: *ingestFlush, ingestAge: *ingestAge, ingestMax: *ingestMax,
		fp: fp,
	}
	if *distWorker >= 0 {
		runDistWorker(dcfg, ds, day0, *distWorker, *distLo, *distHi)
	}
	if *workers > 0 {
		if dcfg.shards == 0 {
			dcfg.shards = *workers
		}
		runDistFront(dcfg, ds, day0, deltas)
	}

	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir); err != nil {
			fatal(err)
		}
	}

	// Live ingest shares the refresher with the canned delta stream, but a
	// multi-day stream owns the day counter — mixing the two would make
	// "which snapshot does this run reflect" ambiguous — so ingest is only
	// armed for single-snapshot worlds.
	ingestEnabled := *ingest && len(deltas) == 0
	if *ingest && len(deltas) > 0 {
		fmt.Fprintln(os.Stderr, "truthserved: live ingest disabled: the input is a multi-day stream (POST /v1/claims will answer 503)")
	}

	eo := serve.EngineOptions{
		Parallelism: *parallel, Shards: *shards, MaxResidentShards: *maxResident,
		TrustTolerance: *trustTol, Planner: planner,
	}
	fo := fusion.Options{Parallelism: *parallel}
	srv := serve.NewServer()
	if *shards > 1 {
		srv.SetTopology(serve.Topology{Mode: "sharded", Shards: *shards, Kind: "range", MaxResident: *maxResident})
	}

	// A store whose current run carries this exact fingerprint serves it
	// immediately: without pending deltas (and without ingest) no engine
	// is built at all — a warm restart costs one file read, no fuse; with
	// pending deltas or live ingest armed the engine is rebuilt and
	// fast-forwarded to the run's day before the refresher takes over.
	// Every fallback to a fresh fuse is reported: an operator expecting a
	// one-file-read warm restart must learn when the persisted runs were
	// unusable and a full re-fusion happened instead.
	var r *serve.Refresher
	if st != nil {
		switch run, err := st.LoadCurrent(); {
		case err != nil:
			fmt.Fprintf(os.Stderr, "truthserved: cannot resume from %s (%v); re-fusing\n", *storeDir, err)
		case run == nil:
			// Empty store: nothing to resume, nothing to report.
		case run.Fingerprint != fp:
			fmt.Fprintf(os.Stderr, "truthserved: stored run %d was fused under a different configuration or input; re-fusing\n", run.Version)
		case run.Day < day0.Day || run.Day-day0.Day > len(deltas):
			fmt.Fprintf(os.Stderr, "truthserved: stored run %d reflects day %d, outside this stream (days %d..%d); re-fusing\n",
				run.Version, run.Day, day0.Day, day0.Day+len(deltas))
		default:
			steps := run.Day - day0.Day
			var eng *serve.Engine
			caughtUp := true
			if steps < len(deltas) || ingestEnabled {
				if eng, err = serve.NewEngine(ds, day0, nil, *method, eo); err != nil {
					fatal(err)
				}
				for i := 0; i < steps; i++ {
					if _, err := eng.Advance(ds, deltas[i], fo); err != nil {
						fmt.Fprintf(os.Stderr, "truthserved: fast-forward to day %d failed (%v); re-fusing\n", run.Day, err)
						caughtUp = false
						break
					}
				}
			}
			if caughtUp {
				rr := serve.NewRefresher(ds, eng, srv, st, fp, run.Day, run.Label, fo)
				if _, err := rr.Resume(run); err != nil {
					fmt.Fprintf(os.Stderr, "truthserved: %v; re-fusing\n", err)
				} else {
					r = rr
					deltas = deltas[steps:]
					fmt.Printf("truthserved: resumed run version %d (%s, %s) from %s\n",
						run.Version, run.Method, run.Label, *storeDir)
				}
			}
		}
	}
	if r == nil {
		eng, err := serve.NewEngine(ds, day0, nil, *method, eo)
		if err != nil {
			fatal(err)
		}
		r = serve.NewRefresher(ds, eng, srv, st, fp, day0.Day, day0.Label, fo)
		v, err := r.Publish()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("truthserved: published version %d (%s, %s, %d items)\n",
			v.Version, v.Method, v.Label, len(v.Answers))
	}

	var ing *serve.Ingester
	if ingestEnabled {
		ing = serve.NewIngester(ds, r, day0, serve.IngestConfig{
			MaxBatch:   *ingestFlush,
			MaxAge:     *ingestAge,
			MaxPending: *ingestMax,
		})
		ing.Start()
		srv.SetIngester(ing)
		fmt.Printf("truthserved: live ingest armed (flush at %d keys or %s; backpressure past %d pending)\n",
			*ingestFlush, *ingestAge, func() int {
				if *ingestMax > 0 {
					return *ingestMax
				}
				return 8 * *ingestFlush
			}())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("truthserved: serving on http://%s\n", ln.Addr())

	// The background refresher plays the remaining deltas, one per
	// -refresh interval — the daily pipeline at demo speed.
	if len(deltas) > 0 {
		go func() {
			ticker := time.NewTicker(*refresh)
			defer ticker.Stop()
			for _, dl := range deltas {
				<-ticker.C
				v, stats, err := r.Apply(dl)
				if err != nil {
					fmt.Fprintf(os.Stderr, "truthserved: refresh failed (still serving the last good version): %v\n", err)
					return
				}
				fmt.Printf("truthserved: refreshed to version %d (%s, %s advance, %d/%d items dirty)\n",
					v.Version, v.Label, stats.Mode, stats.DirtyItems, stats.TotalItems)
				if stats.Plan != nil {
					fmt.Printf("truthserved: plan: %s\n", stats.Plan.Reason)
				}
			}
			fmt.Println("truthserved: delta stream exhausted; serving the final version")
		}()
	}

	// Serve until SIGINT/SIGTERM, then shut down gracefully: stop
	// accepting, drain in-flight requests, flush any pending ingest batch
	// (persisting the final version when a store is configured), exit 0.
	httpSrv := serve.NewHTTPServer(srv.Handler())
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(err)
	case s := <-sig:
		fmt.Printf("truthserved: %v: draining requests\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "truthserved: drain timed out: %v\n", err)
		}
		if ing != nil {
			if err := ing.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "truthserved: final ingest flush failed: %v\n", err)
			}
		}
		if v := srv.View(); v != nil {
			fmt.Printf("truthserved: shut down cleanly at version %d\n", v.Version)
		} else {
			fmt.Println("truthserved: shut down cleanly")
		}
	}
}

// loadWorld resolves the data source: a claims CSV (one snapshot, no
// refresh) or a simulated multi-day collection with its delta stream.
func loadWorld(in, simulate string, days int, seed int64) (*model.Dataset, *model.Snapshot, []*model.Delta, error) {
	if in != "" {
		var r io.Reader = os.Stdin
		if in != "-" {
			f, err := os.Open(in)
			if err != nil {
				return nil, nil, nil, err
			}
			defer f.Close()
			r = f
		}
		ds, snap, err := td.LoadClaimsCSV(r)
		return ds, snap, nil, err
	}

	var gen datagen.Generator
	switch simulate {
	case "stock":
		cfg := datagen.DefaultStockConfig(seed)
		cfg.Days = days
		gen = datagen.NewStock(cfg)
	case "flight":
		cfg := datagen.DefaultFlightConfig(seed)
		cfg.Days = days
		gen = datagen.NewFlight(cfg)
	}
	ds := gen.Dataset()
	snaps := make([]*model.Snapshot, days)
	for d := 0; d < days; d++ {
		snaps[d] = gen.Snapshot(d)
		ds.AddSnapshot(snaps[d])
	}
	// One tolerance regime across the whole period — the invariant the
	// incremental engine relies on (same as Builder.BuildStream).
	ds.ComputeTolerances(value.DefaultAlpha, snaps...)
	deltas := make([]*model.Delta, 0, days-1)
	for d := 1; d < days; d++ {
		dl, err := snaps[d-1].Diff(snaps[d])
		if err != nil {
			return nil, nil, nil, err
		}
		deltas = append(deltas, dl)
	}
	return ds, snaps[0], deltas, nil
}

func usageError(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "truthserved:", err)
	os.Exit(1)
}
