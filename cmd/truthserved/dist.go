package main

// Distributed serving (-workers N): the same binary runs in two modes.
// The front process spawns N shard-worker children (this binary again,
// with the internal -dist-worker flags), waits for each to report its
// ephemeral address, and serves the /v1 API through the scatter-gather
// router while the coordinator drives fusion rounds over the workers'
// /rpc control planes. A worker child builds only its owned contiguous
// shard range, answers the coordinator's RPCs, and serves its local
// slice of the answers under the same /v1 read surface the router fans
// out to. Results are bit-identical to the single-process server at any
// worker count. A crashed worker is respawned and reattached: the
// router answers enveloped 503s for the affected shard range until the
// replacement has replayed the stream and the fleet republishes.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"truthdiscovery/internal/dist"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
	"truthdiscovery/internal/store"
)

// distConfig carries the resolved flag state both distributed modes need.
type distConfig struct {
	method      string
	in          string
	simulate    string
	days        int
	seed        int64
	parallel    int
	addr        string
	storeDir    string
	workers     int
	shards      int
	refresh     time.Duration
	ingest      bool
	ingestFlush int
	ingestAge   time.Duration
	ingestMax   int
	fp          string
}

// runDistWorker is the child mode: build the owned shard partition,
// serve the control plane plus the local /v1 slice, and exit cleanly on
// SIGTERM. It never returns.
func runDistWorker(cfg distConfig, ds *model.Dataset, day0 *model.Snapshot, index, lo, hi int) {
	m, ok := fusion.ByName(cfg.method)
	if !ok {
		fatal(fmt.Errorf("unknown method %q", cfg.method))
	}
	var st *store.Store
	if cfg.storeDir != "" {
		var err error
		if st, err = store.Open(cfg.storeDir); err != nil {
			fatal(err)
		}
	}
	wk, err := dist.NewWorker(dist.WorkerConfig{
		DS:   ds,
		Snap: day0,
		Spec: model.RangeShards(cfg.shards, len(ds.Items)),
		Lo:   lo, Hi: hi, Index: index,
		Method:      m,
		Opts:        fusion.Options{Parallelism: cfg.parallel},
		Fingerprint: cfg.fp,
		Store:       st,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("truthserved: worker %d serving on http://%s\n", index, ln.Addr())
	httpSrv := serve.NewHTTPServer(wk.Handler())
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
	case <-sig:
		_ = httpSrv.Close()
	}
	os.Exit(0)
}

// worker is the front process's handle on one child: its fleet slot and
// owned range are fixed; the process and address change across respawns.
type worker struct {
	index, lo, hi int
	cmd           *exec.Cmd
	addr          string
}

// spawn launches one worker child and blocks until it reports its
// address (or dies). The child's remaining output is relayed to stderr
// under a per-worker prefix; the address line itself is consumed here so
// the front's own "serving on" line stays the only one in its log.
func (cfg distConfig) spawn(w *worker) error {
	args := []string{
		"-method", cfg.method,
		"-parallel", strconv.Itoa(cfg.parallel),
		"-shards", strconv.Itoa(cfg.shards),
		"-addr", "127.0.0.1:0",
		"-dist-worker", strconv.Itoa(w.index),
		"-dist-lo", strconv.Itoa(w.lo),
		"-dist-hi", strconv.Itoa(w.hi),
	}
	if cfg.in != "" {
		args = append(args, "-in", cfg.in)
	} else {
		args = append(args, "-simulate", cfg.simulate,
			"-days", strconv.Itoa(cfg.days), "-seed", strconv.FormatInt(cfg.seed, 10))
	}
	if cfg.storeDir != "" {
		args = append(args, "-store", filepath.Join(cfg.storeDir, fmt.Sprintf("worker%d", w.index)))
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				select {
				case addrCh <- line[i+len("serving on "):]:
					continue // consumed: keep it out of the front's log
				default:
				}
			}
			fmt.Fprintf(os.Stderr, "worker%d: %s\n", w.index, line)
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			_ = cmd.Process.Kill()
			return fmt.Errorf("worker %d exited before reporting its address", w.index)
		}
		w.cmd, w.addr = cmd, addr
		return nil
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		return fmt.Errorf("worker %d did not report an address in time", w.index)
	}
}

// runDistFront is the coordinator/router mode. It never returns.
func runDistFront(cfg distConfig, ds *model.Dataset, day0 *model.Snapshot, deltas []*model.Delta) {
	m, _ := fusion.ByName(cfg.method)
	spec := model.RangeShards(cfg.shards, len(ds.Items))
	workers := make([]*worker, cfg.workers)
	bounds := make([]int, cfg.workers+1)
	for i := range bounds {
		bounds[i] = i * cfg.shards / cfg.workers
	}
	var shuttingDown atomic.Bool
	killFleet := func() {
		for _, w := range workers {
			if w != nil && w.cmd != nil {
				_ = w.cmd.Process.Signal(syscall.SIGTERM)
			}
		}
	}
	for i := range workers {
		workers[i] = &worker{index: i, lo: bounds[i], hi: bounds[i+1]}
		if err := cfg.spawn(workers[i]); err != nil {
			killFleet()
			fatal(err)
		}
	}
	addrs := make([]string, cfg.workers)
	peers := make([]*dist.PeerClient, cfg.workers)
	for i, w := range workers {
		addrs[i] = w.addr
		peers[i] = dist.NewPeerClient(w.addr)
	}
	rt, err := serve.NewRouter(ds, spec, bounds, addrs)
	if err != nil {
		killFleet()
		fatal(err)
	}
	coord := dist.NewCoordinator(dist.CoordinatorConfig{
		DS: ds, Spec: spec, Method: m,
		Opts:        fusion.Options{Parallelism: cfg.parallel},
		Fingerprint: cfg.fp,
		Base:        day0,
		Srv:         rt.Server(),
		OnPublish:   rt.SetWorkerVersion,
	}, peers)
	rt.Server().SetExtraStats(func() map[string]any {
		return map[string]any{"coordinator": coord.Stats(), "router": rt.Stats()}
	})
	if err := coord.Init(); err != nil {
		killFleet()
		fatal(err)
	}
	v, err := coord.RunAndPublish()
	if err != nil {
		killFleet()
		fatal(err)
	}
	fmt.Printf("truthserved: published version %d (%s, %s) across %d workers\n",
		v.Version, v.Method, v.Label, cfg.workers)

	ingestEnabled := cfg.ingest && len(deltas) == 0
	var ing *serve.Ingester
	if ingestEnabled {
		ing = serve.NewIngester(ds, coord, day0, serve.IngestConfig{
			MaxBatch:   cfg.ingestFlush,
			MaxAge:     cfg.ingestAge,
			MaxPending: cfg.ingestMax,
		})
		ing.Start()
		rt.Server().SetIngester(ing)
		fmt.Printf("truthserved: live ingest armed across the fleet (flush at %d keys or %s)\n",
			cfg.ingestFlush, cfg.ingestAge)
	}

	// Supervision: when a worker dies outside shutdown, respawn it from
	// its store (or the genesis world), re-point the router, and let the
	// coordinator replay the stream and republish. Reads against the dead
	// worker's range answer enveloped 503s in between. A respawn whose
	// reattach fails is killed so the next loop turn retries from scratch.
	var supervisors sync.WaitGroup
	for _, w := range workers {
		supervisors.Add(1)
		go func(w *worker) {
			defer supervisors.Done()
			for {
				_ = w.cmd.Wait()
				if shuttingDown.Load() {
					return
				}
				rt.MarkWorkerDown(w.index)
				fmt.Fprintf(os.Stderr, "truthserved: worker %d died; respawning\n", w.index)
				time.Sleep(200 * time.Millisecond)
				if err := cfg.spawn(w); err != nil {
					fmt.Fprintf(os.Stderr, "truthserved: respawning worker %d: %v\n", w.index, err)
					continue
				}
				rt.SetWorker(w.index, w.addr)
				if err := coord.Reattach(w.index, w.addr); err != nil {
					fmt.Fprintf(os.Stderr, "truthserved: reattaching worker %d: %v\n", w.index, err)
					rt.MarkWorkerDown(w.index)
					_ = w.cmd.Process.Signal(syscall.SIGTERM)
					continue
				}
				fmt.Printf("truthserved: worker %d reattached at version %d\n", w.index, coord.Version())
			}
		}(w)
	}

	// The canned delta stream advances the whole fleet, one delta per
	// refresh interval, exactly like the single-process pipeline.
	if len(deltas) > 0 {
		go func() {
			ticker := time.NewTicker(cfg.refresh)
			defer ticker.Stop()
			for _, dl := range deltas {
				<-ticker.C
				v, stats, err := coord.Apply(dl)
				if err != nil {
					fmt.Fprintf(os.Stderr, "truthserved: distributed refresh failed (still serving the last good version): %v\n", err)
					return
				}
				fmt.Printf("truthserved: refreshed to version %d (%s, %s advance, %d/%d items dirty)\n",
					v.Version, v.Label, stats.Mode, stats.DirtyItems, stats.TotalItems)
			}
			fmt.Println("truthserved: delta stream exhausted; serving the final version")
		}()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		killFleet()
		fatal(err)
	}
	fmt.Printf("truthserved: serving on http://%s\n", ln.Addr())
	httpSrv := serve.NewHTTPServer(rt.Handler())
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
		shuttingDown.Store(true)
		killFleet()
		fatal(err)
	case s := <-sig:
		fmt.Printf("truthserved: %v: draining requests\n", s)
		shuttingDown.Store(true)
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
		killFleet()
		supervisors.Wait()
		killFleet() // reap a child a supervisor respawned mid-shutdown
		if v := rt.Server().View(); v != nil {
			fmt.Printf("truthserved: shut down cleanly at version %d\n", v.Version)
		} else {
			fmt.Println("truthserved: shut down cleanly")
		}
	}
	os.Exit(0)
}
