package dist

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
)

// CoordinatorConfig assembles the fleet's driver.
type CoordinatorConfig struct {
	DS     *model.Dataset
	Spec   model.ShardSpec
	Method fusion.Method
	Opts   fusion.Options
	// Fingerprint is the fleet-wide method/options digest every worker
	// must describe back.
	Fingerprint string
	// Base is the snapshot the fleet currently reflects (the stream's
	// day 0 at startup). The coordinator advances its own copy alongside
	// the workers so it can replay the cumulative delta to a reattached
	// worker that restarted from the genesis world.
	Base *model.Snapshot
	// Srv, when non-nil, receives the coordinator's meta view on every
	// publish: version, trust and attr-trust but no answers — the router
	// serves answers from the workers.
	Srv *serve.Server
	// OnPublish, when non-nil, is called per worker after each publish
	// (the router updates its per-worker version/health rows here).
	OnPublish func(worker int, version uint64)
}

// Coordinator drives fusion rounds across the shard workers: it
// broadcasts the trust state, gathers per-shard partial folds through
// fusion.DistRun, and publishes each finished run to every worker under
// one fleet-wide version. It implements serve.Applier, so the live
// claim-ingest flusher can feed it exactly like an in-process refresher.
type Coordinator struct {
	cfg     CoordinatorConfig
	genesis *model.Snapshot

	// mu serializes the control flow (init, runs, applies, reattaches).
	mu     sync.Mutex
	peers  []*PeerClient
	bounds []int // worker w owns shards [bounds[w], bounds[w+1])
	base   *model.Snapshot
	day    int
	label  string
	vers   uint64
	cps    []int
	n      int // roster size
	nAttrs int

	// statsMu guards the counters alone, so /v1/stats never blocks
	// behind a running fusion round.
	statsMu   sync.Mutex
	runs      uint64
	rounds    uint64
	broadcast time.Duration
	gather    time.Duration
	lastRun   time.Duration
}

var _ serve.Applier = (*Coordinator)(nil)

// NewCoordinator wires the driver over its peer clients (one per
// worker, ordered by owned shard range). Call Init before the first run.
func NewCoordinator(cfg CoordinatorConfig, peers []*PeerClient) *Coordinator {
	c := &Coordinator{
		cfg:     cfg,
		genesis: cfg.Base,
		base:    cfg.Base,
		day:     cfg.Base.Day,
		label:   cfg.Base.Label,
	}
	c.peers = peers
	return c
}

// Init describes the fleet, validates that it covers the shard spec
// exactly, and arms every worker for the first run.
func (c *Coordinator) Init() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	descs := make([]*describeResponse, len(c.peers))
	for i, p := range c.peers {
		d, err := p.Describe()
		if err != nil {
			return fmt.Errorf("dist: describing worker %d: %w", i, err)
		}
		descs[i] = d
	}
	if err := c.adopt(descs); err != nil {
		return err
	}
	for i := range descs {
		if descs[i].Day != c.base.Day {
			return fmt.Errorf("dist: worker %d reflects day %d, coordinator base is day %d",
				i, descs[i].Day, c.base.Day)
		}
	}
	return c.initPeersLocked()
}

// adopt validates the fleet's self-descriptions against the
// coordinator's world and absorbs the claim-count and bound vectors.
func (c *Coordinator) adopt(descs []*describeResponse) error {
	if len(descs) == 0 {
		return fmt.Errorf("dist: no workers")
	}
	bounds := make([]int, 0, len(descs)+1)
	bounds = append(bounds, 0)
	var cps []int
	for i, d := range descs {
		if d.Method != c.cfg.Method.Name() {
			return fmt.Errorf("dist: worker %d fuses %s, coordinator drives %s", i, d.Method, c.cfg.Method.Name())
		}
		if d.Fingerprint != c.cfg.Fingerprint {
			return fmt.Errorf("dist: worker %d has fingerprint %s, want %s", i, d.Fingerprint, c.cfg.Fingerprint)
		}
		if d.Shards != c.cfg.Spec.Shards || d.NumItems != c.cfg.Spec.NumItems {
			return fmt.Errorf("dist: worker %d partitions %d shards over %d items, coordinator %d over %d",
				i, d.Shards, d.NumItems, c.cfg.Spec.Shards, c.cfg.Spec.NumItems)
		}
		if d.Lo != bounds[len(bounds)-1] {
			return fmt.Errorf("dist: worker %d owns shards [%d,%d), expected to start at %d (fleet must tile the spec in order)",
				i, d.Lo, d.Hi, bounds[len(bounds)-1])
		}
		if d.Hi <= d.Lo {
			return fmt.Errorf("dist: worker %d owns an empty range [%d,%d)", i, d.Lo, d.Hi)
		}
		bounds = append(bounds, d.Hi)
		if cps == nil {
			cps = make([]int, len(d.CPS))
		}
		if len(d.CPS) != len(cps) {
			return fmt.Errorf("dist: worker %d counts %d sources, want %d", i, len(d.CPS), len(cps))
		}
		for s, n := range d.CPS {
			cps[s] += n
		}
	}
	if last := bounds[len(bounds)-1]; last != c.cfg.Spec.Shards {
		return fmt.Errorf("dist: fleet covers shards [0,%d), spec has %d", last, c.cfg.Spec.Shards)
	}
	c.bounds = bounds
	c.cps = cps
	c.n = len(fusion.DefaultRoster(c.cfg.DS))
	c.nAttrs = len(c.cfg.DS.Attrs)
	return nil
}

func (c *Coordinator) initPeersLocked() error {
	for i, p := range c.peers {
		if err := p.Init(c.cps, c.cfg.Opts); err != nil {
			return fmt.Errorf("dist: initializing worker %d: %w", i, err)
		}
	}
	return nil
}

// RunAndPublish executes one full fusion run across the fleet and
// publishes the result everywhere under the next version.
func (c *Coordinator) RunAndPublish() (*serve.View, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runAndPublishLocked()
}

func (c *Coordinator) runAndPublishLocked() (*serve.View, error) {
	peers := make([]fusion.DistPeer, len(c.peers))
	for i, p := range c.peers {
		peers[i] = p
	}
	dr, err := fusion.DistRun(c.cfg.Method, c.cfg.Opts, peers, c.n, c.nAttrs, c.cps)
	if err != nil {
		return nil, err
	}
	c.vers++
	now := time.Now().Unix()
	pub := &publishRequest{
		Version:     c.vers,
		Day:         c.day,
		Label:       c.label,
		CreatedUnix: now,
		Rounds:      dr.Rounds,
		Converged:   dr.Converged,
		Trust:       dr.Trust,
		AttrTrust:   dr.AttrTrust,
	}
	for i, p := range c.peers {
		if err := p.Publish(pub); err != nil {
			return nil, fmt.Errorf("dist: publishing version %d to worker %d: %w", c.vers, i, err)
		}
		if c.cfg.OnPublish != nil {
			c.cfg.OnPublish(i, c.vers)
		}
	}
	roster := fusion.DefaultRoster(c.cfg.DS)
	v := serve.NewView(serve.View{
		Version:     c.vers,
		Method:      c.cfg.Method.Name(),
		Fingerprint: c.cfg.Fingerprint,
		Day:         c.day,
		Label:       c.label,
		CreatedUnix: now,
		SourceIDs:   roster,
		SourceNames: c.cfg.DS.SourceNames(roster),
		Trust:       dr.Trust,
		AttrTrust:   dr.AttrTrust,
	})
	if c.cfg.Srv != nil {
		c.cfg.Srv.Swap(v)
	}
	c.statsMu.Lock()
	c.runs++
	c.rounds += uint64(dr.Rounds)
	c.broadcast += dr.Broadcast
	c.gather += dr.Gather
	c.lastRun = dr.Elapsed
	c.statsMu.Unlock()
	return v, nil
}

// Apply implements serve.Applier: split the delta across the fleet,
// advance every worker's owned shards, re-run fusion from scratch and
// publish. Distributed refreshes have no warm path — the contract is
// the same bit-identity to flat Fuse of the advanced snapshot, bought
// with a full re-run. A worker that fails to advance leaves the fleet at
// the old day: the workers before it are rolled back, so the same delta
// can be applied again once the worker is back (Reattach).
func (c *Coordinator) Apply(dl *model.Delta) (*serve.View, fusion.IncrementalStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stats := fusion.IncrementalStats{Mode: fusion.ModeFull, TotalItems: c.cfg.Spec.NumItems}
	if dl.FromDay != c.day {
		return nil, stats, fmt.Errorf("dist: delta advances day %d, fleet is at day %d", dl.FromDay, c.day)
	}
	split, err := dl.Split(c.cfg.Spec)
	if err != nil {
		return nil, stats, err
	}
	next, err := c.base.Apply(dl)
	if err != nil {
		return nil, stats, err
	}
	stats.DirtyItems = len(dl.DirtyItems())
	cps := make([]int, len(c.cps))
	for i, p := range c.peers {
		resp, err := p.Apply(split[c.bounds[i]:c.bounds[i+1]])
		if err != nil {
			err = fmt.Errorf("dist: advancing worker %d: %w", i, err)
			return nil, stats, errors.Join(err, c.rollbackLocked(next, i))
		}
		for s, n := range resp.CPS {
			cps[s] += n
		}
	}
	c.base = next
	c.day, c.label = dl.ToDay, dl.ToLabel
	c.cps = cps
	if err := c.initPeersLocked(); err != nil {
		return nil, stats, err
	}
	v, err := c.runAndPublishLocked()
	return v, stats, err
}

// rollbackLocked returns workers [0, failed), which advanced to next, to
// the coordinator's base with the inverse delta. Workers validate every
// payload and maintain their problems exactly like a fresh build, so the
// rolled-back shards equal the ones they had.
func (c *Coordinator) rollbackLocked(next *model.Snapshot, failed int) error {
	if failed == 0 {
		return nil
	}
	back, err := next.Diff(c.base)
	if err != nil {
		return fmt.Errorf("dist: rolling back: %w", err)
	}
	split, err := back.Split(c.cfg.Spec)
	if err != nil {
		return fmt.Errorf("dist: rolling back: %w", err)
	}
	var errs []error
	for i, p := range c.peers[:failed] {
		if _, err := p.Apply(split[c.bounds[i]:c.bounds[i+1]]); err != nil {
			errs = append(errs, fmt.Errorf("dist: rolling back worker %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Reattach re-points worker i at a new address after a restart, replays
// the cumulative delta if the worker came back reflecting the genesis
// snapshot, and re-publishes the fleet at a fresh version so every
// worker (including the returned one) serves consistent answers again.
func (c *Coordinator) Reattach(i int, addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.peers) {
		return fmt.Errorf("dist: no worker %d", i)
	}
	c.peers[i].SetAddr(addr)
	d, err := c.peers[i].Describe()
	if err != nil {
		return fmt.Errorf("dist: describing reattached worker %d: %w", i, err)
	}
	if d.Lo != c.bounds[i] || d.Hi != c.bounds[i+1] {
		return fmt.Errorf("dist: reattached worker %d owns [%d,%d), expected [%d,%d)",
			i, d.Lo, d.Hi, c.bounds[i], c.bounds[i+1])
	}
	if d.Day != c.day {
		if d.Day != c.genesis.Day {
			return fmt.Errorf("dist: reattached worker %d reflects day %d; fleet is at day %d and only a genesis-day (%d) restart can be replayed",
				i, d.Day, c.day, c.genesis.Day)
		}
		dl, err := c.genesis.Diff(c.base)
		if err != nil {
			return err
		}
		split, err := dl.Split(c.cfg.Spec)
		if err != nil {
			return err
		}
		if _, err := c.peers[i].Apply(split[c.bounds[i]:c.bounds[i+1]]); err != nil {
			return fmt.Errorf("dist: replaying stream to worker %d: %w", i, err)
		}
	}
	// Re-describe the fleet: the returned worker's claim counts replace
	// whatever it had, and everyone re-inits for a clean run.
	descs := make([]*describeResponse, len(c.peers))
	for j, p := range c.peers {
		if descs[j], err = p.Describe(); err != nil {
			return fmt.Errorf("dist: describing worker %d: %w", j, err)
		}
	}
	if err := c.adopt(descs); err != nil {
		return err
	}
	if err := c.initPeersLocked(); err != nil {
		return err
	}
	_, err = c.runAndPublishLocked()
	return err
}

// Version returns the last published fleet version.
func (c *Coordinator) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vers
}

// Base returns the snapshot the fleet currently reflects.
func (c *Coordinator) Base() *model.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base
}

// Stats renders the round/broadcast timing counters for /v1/stats;
// wire it into the router's server with SetExtraStats.
func (c *Coordinator) Stats() map[string]any {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return map[string]any{
		"workers":      len(c.peers),
		"runs":         c.runs,
		"rounds_total": c.rounds,
		"broadcast_ms": c.broadcast.Milliseconds(),
		"gather_ms":    c.gather.Milliseconds(),
		"last_run_ms":  c.lastRun.Milliseconds(),
	}
}
