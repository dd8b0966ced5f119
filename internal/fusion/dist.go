package fusion

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"truthdiscovery/internal/copydetect"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/parallel"
)

// The round protocol: every iterative method as one loop over an
// executor, run in-process over a ShardedProblem or split across worker
// processes.
//
// Every method the paper evaluates follows one template: per-item
// phases score the values from the current trust (touching only the
// item's own state), and a per-source fold re-estimates trust from the
// scores. DistPeer is that split as an interface: Phase / MinMax /
// Rescale / Fold. The 2-/3-ESTIMATES global [0,1] rescales decompose
// too: min/max gather per peer (both are association-insensitive), one
// global combine, one broadcast apply.
//
// DistExec executes the protocol over a shard set. DistRun's loops drive
// it: one for the eight single-trust-vector methods (runVector), one for
// the ACCU family (runAccu). ShardedProblem.Run runs the same loops over
// one in-process DistExec that spans every shard; a distributed run
// drives one DistExec per worker (internal/dist wraps it in HTTP),
// chaining the folds through the workers in ascending shard order. Range
// sharding makes worker order equal global item order, and every fold
// visits items in global item order, so the floating-point association
// is exactly the flat engine's: results are bit-identical to flat
// Method.Run at any shard or worker count. The per-item kernels are
// shared with the flat loops (weblink.go, ir.go, bayes.go, copy.go),
// which stay as the bit-identity reference.

// Phase, space and fold selectors of the DistPeer protocol. Only
// 3-ESTIMATES uses the second phase/space (its per-value error factors);
// only the per-key ACCU finish uses the second fold.
const (
	DistPhaseMain = 0
	DistPhaseEps  = 1

	DistSpaceMain = 0
	DistSpaceEps  = 1

	DistFoldTrust    = 0
	DistFoldAccuMean = 1
)

// DistPeer is one executor's view of a fusion round. trust and byKey
// carry the loop's current trust state into phases and trust-reading
// folds; acc is the running fold accumulator, threaded through the peers
// in ascending shard order and returned updated.
type DistPeer interface {
	Phase(step int, trust []float64, byKey [][]float64) error
	MinMax(space int) (lo, hi float64, err error)
	Rescale(space int, lo, hi float64) error
	Fold(fold int, trust []float64, byKey [][]float64, acc [][]float64) ([][]float64, error)
}

// BuildShardedOwned builds the shard problems of shards [lo, hi) only —
// one worker's owned slice of the spec. Range sharding is required: the
// owned item set must be a contiguous run of global item order so that
// chaining workers in shard order reproduces the flat fold association.
// The assembled ClaimsPerSource covers only the owned shards; distributed
// runs use the coordinator's global sum instead (NewDistExec).
func BuildShardedOwned(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID,
	spec model.ShardSpec, needs BuildOptions, lo, hi int) (*ShardedProblem, error) {

	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Kind != model.ShardByRange {
		return nil, fmt.Errorf("fusion: distributed workers need range sharding (worker order must equal item order), got %v", spec.Kind)
	}
	if lo < 0 || hi > spec.Shards || lo >= hi {
		return nil, fmt.Errorf("fusion: owned shard range [%d, %d) outside [0, %d)", lo, hi, spec.Shards)
	}
	if sources == nil {
		sources = DefaultRoster(ds)
	}
	snaps, err := snap.Shard(spec)
	if err != nil {
		return nil, err
	}
	sp := &ShardedProblem{
		Spec:      spec,
		SourceIDs: sources,
		NumAttrs:  len(ds.Attrs),
		ds:        ds,
		needs:     needs,
	}
	for k := lo; k < hi; k++ {
		p := Build(ds, snaps[k], sources, needs)
		pt := &shardPart{snap: snaps[k], resident: true, p: p}
		recordPart(pt, p)
		sp.parts = append(sp.parts, pt)
	}
	sp.finishAssembly()
	return sp, nil
}

// ApplyShardDeltas advances the shard set one delta step: deltas[k] is
// shard k's slice of a Delta.Split (nil or empty deltas leave the shard's
// claims untouched, carrying its arena forward; non-empty ones rebuild
// the shard problem deterministically). The cross-shard structures are
// re-derived afterwards, so the next run sees the updated snapshot — the
// distributed ingest path re-runs fusion in full, which stays
// bit-identical to flat Fuse of the advanced snapshot.
func (sp *ShardedProblem) ApplyShardDeltas(deltas []*model.Delta) error {
	if len(deltas) != len(sp.parts) {
		return fmt.Errorf("fusion: %d shard deltas for %d owned shards", len(deltas), len(sp.parts))
	}
	for k, dl := range deltas {
		if dl == nil {
			continue
		}
		pt := sp.parts[k]
		ns, err := pt.snap.Apply(dl)
		if err != nil {
			return fmt.Errorf("fusion: shard %d delta: %w", k, err)
		}
		if dl.Empty() {
			npt := pt.carryForward()
			npt.snap = ns
			sp.parts[k] = npt
			continue
		}
		p := Build(sp.ds, ns, sp.SourceIDs, sp.needs)
		npt := &shardPart{snap: ns, resident: true, p: p}
		recordPart(npt, p)
		sp.parts[k] = npt
	}
	sp.finishAssembly()
	return nil
}

// distKind selects a method's phase/fold kernels and round loop.
type distKind int

const (
	dkVote distKind = iota
	dkHub
	dkAvgLog
	dkInvest
	dkPooledInvest
	dkCosine
	dkTwoEst
	dkThreeEst
	dkTF
	dkAccu
)

// methodKind maps a method to its executor wiring. Ensemble composes
// whole runs and has none (ShardedProblem.Run votes over its members).
func methodKind(m Method) (distKind, accuConfig, error) {
	switch m.(type) {
	case Vote:
		return dkVote, accuConfig{}, nil
	case Hub:
		return dkHub, accuConfig{}, nil
	case AvgLog:
		return dkAvgLog, accuConfig{}, nil
	case Invest:
		return dkInvest, accuConfig{}, nil
	case PooledInvest:
		return dkPooledInvest, accuConfig{}, nil
	case Cosine:
		return dkCosine, accuConfig{}, nil
	case TwoEstimates:
		return dkTwoEst, accuConfig{}, nil
	case ThreeEstimates:
		return dkThreeEst, accuConfig{}, nil
	case TruthFinder:
		return dkTF, accuConfig{}, nil
	case AccuCopy:
		return dkAccu, accuConfig{name: "AccuCopy", sim: true, format: true, copies: true}, nil
	case AccuSimCat:
		return dkAccu, accuConfig{name: "AccuSimCat", sim: true, perCat: true}, nil
	}
	if ac, ok := m.(accuConfigured); ok {
		return dkAccu, ac.accuCfg(), nil
	}
	return 0, accuConfig{}, fmt.Errorf("fusion: method %s has no round program", m.Name())
}

// errNoSplit is DistCheck's one refusal.
var errNoSplit = errors.New("cannot run split across workers: AccuCopy, KnownGroups, AccuSimCat and Ensemble need every item in one process")

// DistCheck is the capability check for runs split across workers.
// AccuCopy's copy detection and the KnownGroups filter read every item
// at once, AccuSimCat's category keys are numbered by global first
// appearance, and Ensemble composes whole runs: all four run in one
// process only (ShardedProblem.Run). Supplied trust (InputTrust,
// InputAttrTrust, InitialTrust) is fine — the coordinator's loop holds
// the trust.
func DistCheck(m Method, opts Options) error {
	_, cfg, err := methodKind(m)
	if err != nil || cfg.copies || cfg.perCat || opts.KnownGroups != nil {
		return fmt.Errorf("fusion: %s %w", m.Name(), errNoSplit)
	}
	return nil
}

// DistExec executes the DistPeer protocol over a shard set: phases write
// the persistent per-shard score spaces, folds walk the items in
// ascending global order, and the per-method state (spaces, posteriors,
// chosen buckets) survives between calls so LocalResult can render the
// answers after the run.
//
// Over a memory budget (some shard arenas evicted), Phase defers its
// pass: the next Phase, MinMax, Rescale, LocalResult or copy-detection
// step runs it first, and Fold runs it in the same shard-by-shard sweep
// as the fold, so each evicted shard is rebuilt once per phase-and-fold.
// Workers are always resident and never defer.
type DistExec struct {
	sp   *ShardedProblem
	kind distKind
	cfg  accuConfig
	opts Options
	name string

	spaces []voteSpace // main score space (votes for INVEST); nil for VOTE and ACCU
	eps    []voteSpace // 3-ESTIMATES error-factor space
	aux    []voteSpace // INVEST invested space
	temps  []workerRows

	pending func(k int, p *Problem, par int) // deferred phase (budget mode)

	// ACCU family state.
	probs   [][]float64
	chosen  []int32
	numKeys int
	keyAt   func(k int, p *Problem, i int) int32
	tables  *accuTables
	popTabs []*popTable    // per shard, built lazily on its first phase
	weights []claimWeights // ACCUCOPY per-shard claim weights (detect)
	dirty   [][]int        // warm start: per-shard rebuilt items, the only ones phased

	// Per-round score tables of the non-ACCU kinds, refilled from the
	// loop's trust at the top of every Phase (and Fold, for INVEST — a
	// remote worker's Phase and Fold are separate calls).
	nlg    []float64 // TRUTHFINDER -log(1-tau)
	cube   []float64 // COSINE trust^3
	shares []float64 // INVEST trust/claims

	// cps is the global per-source claim count (the coordinator's sum on
	// a worker), read by the INVEST kernels and the AVGLOG tail.
	cps []int
}

// NewDistExec prepares a worker executor for one split run. globalCPS is
// the coordinator's cross-worker claim-count sum (nil: use the problem's
// own counts — the single-worker case).
func NewDistExec(sp *ShardedProblem, m Method, opts Options, globalCPS []int) (*DistExec, error) {
	if err := DistCheck(m, opts); err != nil {
		return nil, err
	}
	return newExec(sp, m, opts, globalCPS, nil)
}

// newExec prepares an executor for any method with a round program. cps
// is the global per-source claim count (nil: the problem's own). dirty,
// when set, lists each shard's rebuilt items for a warm start: only they
// are phased, and the ACCU posterior rows come from seedWarm instead of
// a cold arena.
func newExec(sp *ShardedProblem, m Method, opts Options, cps []int, dirty [][]int) (*DistExec, error) {
	kind, cfg, err := methodKind(m)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	e := &DistExec{sp: sp, kind: kind, cfg: cfg, opts: opts, name: m.Name(), cps: cps, dirty: dirty}
	if e.cps == nil {
		e.cps = sp.ClaimsPerSource
	}
	n := len(sp.SourceIDs)
	switch kind {
	case dkVote:
		// The dominant bucket is bucket 0; no rounds, no state.
	case dkHub, dkAvgLog, dkTwoEst:
		e.spaces = sp.newSpaces()
	case dkInvest, dkPooledInvest:
		e.spaces, e.aux = sp.newSpaces(), sp.newSpaces()
		e.shares = make([]float64, n)
	case dkCosine:
		e.spaces, e.temps = sp.newSpaces(), sp.newPartTemps(opts.Parallelism)
		e.cube = make([]float64, n)
	case dkTF:
		e.spaces, e.temps = sp.newSpaces(), sp.newPartTemps(opts.Parallelism)
		e.nlg = make([]float64, n)
	case dkThreeEst:
		e.spaces, e.eps = sp.newSpaces(), sp.newSpaces()
		for k := range e.eps {
			for i := range e.eps[k].flat {
				e.eps[k].flat[i] = 0.4
			}
		}
	case dkAccu:
		e.temps = sp.newPartTemps(opts.Parallelism)
		e.numKeys, e.keyAt = shardedKeySetup(sp, cfg)
		e.tables = newAccuTables(n, e.numKeys, opts, cfg)
		if cfg.popularity {
			e.popTabs = make([]*popTable, len(sp.parts))
		}
		e.probs = make([][]float64, sp.NumItems())
		e.chosen = make([]int32, sp.NumItems()) // starts at the dominant bucket
		if dirty != nil {
			break // rows from seedWarm
		}
		// Posteriors: per-shard flat arenas with global row views in item
		// order — the sharded analogue of newProbRows.
		for _, pt := range sp.parts {
			flat := make([]float64, pt.numBuckets())
			for i, g := range pt.gidx {
				e.probs[g] = flat[pt.off[i]:pt.off[i+1]:pt.off[i+1]]
			}
		}
		if cfg.copies {
			// Seed the posteriors with provider shares (the VOTE prior) so
			// the first detection round sees sensible uncertainty, as
			// accuIterate does. Plain runs skip the pass: round 1 rewrites
			// every row before any fold reads it.
			sp.sweep(opts.Parallelism, nil, func(k int, p *Problem, i, g int) {
				it := &p.Items[i]
				for b, bk := range it.Buckets {
					e.probs[g][b] = float64(len(bk.Sources)) / float64(it.Providers)
				}
			})
		}
	}
	return e, nil
}

// shardedKeySetup resolves the trust key space over the shard set: the
// global attribute table for the Attr variants, the globally renumbered
// category table for the Cat extension, a single key otherwise.
func shardedKeySetup(sp *ShardedProblem, cfg accuConfig) (numKeys int, keyAt func(k int, p *Problem, i int) int32) {
	keyAt = func(int, *Problem, int) int32 { return 0 }
	switch {
	case cfg.perAttr:
		numKeys = sp.NumAttrs
		keyAt = func(k int, p *Problem, i int) int32 { return int32(p.Items[i].Attr) }
	case cfg.perCat:
		numKeys = len(sp.CatNames)
		if numKeys == 0 {
			numKeys = 1
		}
		keyAt = func(k int, p *Problem, i int) int32 { return sp.parts[k].cats[i] }
	}
	return numKeys, keyAt
}

// flush runs a deferred phase.
func (e *DistExec) flush() {
	if e.pending != nil {
		phase := e.pending
		e.pending = nil
		e.sp.sweep(e.opts.Parallelism, phase, nil)
	}
}

// Phase runs one per-item scoring pass over the shards under the loop's
// trust state (deferred over a memory budget, see DistExec).
func (e *DistExec) Phase(step int, trust []float64, byKey [][]float64) error {
	e.flush()
	phase := e.phase(step, trust, byKey)
	if phase == nil {
		return fmt.Errorf("fusion: phase %d not defined for %s", step, e.name)
	}
	if e.sp.budget() {
		e.pending = phase
		return nil
	}
	e.sp.sweep(e.opts.Parallelism, phase, nil)
	return nil
}

// phase refills the round's score tables from the trust state and
// returns the shard pass of the step's kernel (nil when undefined).
func (e *DistExec) phase(step int, trust []float64, byKey [][]float64) func(k int, p *Problem, par int) {
	switch {
	case e.kind == dkHub || e.kind == dkAvgLog:
		return e.items(func(k int, p *Problem, i int, _ []float64) {
			voteMassItem(&p.Items[i], trust, e.spaces[k].row(i))
		})
	case e.kind == dkInvest || e.kind == dkPooledInvest:
		pooled := e.kind == dkPooledInvest
		investShares(e.shares, trust, e.cps)
		return e.items(func(k int, p *Problem, i int, _ []float64) {
			investItem(&p.Items[i], e.shares, e.spaces[k].row(i), e.aux[k].row(i), pooled)
		})
	case e.kind == dkCosine:
		cosineCubeTable(e.cube, trust)
		return e.items(func(k int, p *Problem, i int, tmp []float64) {
			cosineScoreItem(&p.Items[i], e.cube, e.spaces[k].row(i), tmp)
		})
	case e.kind == dkTwoEst:
		return e.items(func(k int, p *Problem, i int, _ []float64) {
			twoEstVoteItem(&p.Items[i], trust, e.spaces[k].row(i))
		})
	case e.kind == dkThreeEst && step == DistPhaseMain:
		return e.items(func(k int, p *Problem, i int, _ []float64) {
			threeEstSigmaItem(&p.Items[i], trust, e.spaces[k].row(i), e.eps[k].row(i))
		})
	case e.kind == dkThreeEst && step == DistPhaseEps:
		return e.items(func(k int, p *Problem, i int, _ []float64) {
			threeEstEpsItem(&p.Items[i], trust, e.spaces[k].row(i), e.eps[k].row(i))
		})
	case e.kind == dkTF:
		tfLogTable(e.nlg, trust)
		return e.items(func(k int, p *Problem, i int, tmp []float64) {
			tfConfItem(&p.Items[i], p.Sim[i], e.nlg, e.spaces[k].row(i), tmp)
		})
	case e.kind == dkAccu:
		e.tables.update(&accuTrust{keyed: e.numKeys > 0, global: trust, byKey: byKey})
		return e.items(func(k int, p *Problem, i int, tmp []float64) {
			var popLg, popCnt []float64
			if e.popTabs != nil {
				popLg, popCnt = e.popTabs[k].rows(i)
			}
			var w [][]float64
			if e.weights != nil {
				w = e.weights[k][i]
			}
			g := e.sp.parts[k].gidx[i]
			e.chosen[g] = accuPosterior(p, i, e.opts, e.cfg, e.tables.row(e.keyAt(k, p, i)), popLg, popCnt, w, e.probs[g], tmp)
		})
	}
	return nil
}

// items lifts a per-item kernel to a shard pass (tmp is the worker's
// temp row, nil for kernels without one). Items write disjoint state,
// so the pass fans out bit-identically at any parallelism. After a warm
// seed only the shard's rebuilt items are scored.
func (e *DistExec) items(kernel func(k int, p *Problem, i int, tmp []float64)) func(k int, p *Problem, par int) {
	return func(k int, p *Problem, par int) {
		n, idx := len(p.Items), []int(nil)
		if e.dirty != nil {
			idx = e.dirty[k]
			n = len(idx)
		}
		if n == 0 {
			return
		}
		if e.popTabs != nil && e.popTabs[k] == nil {
			// POPACCU's per-shard table, built on the shard's first scored
			// phase (distinct slots, so concurrent shard phases never race;
			// rebuilds under the budget reproduce the same buckets).
			e.popTabs[k] = newPopTable(p)
		}
		workers, rows := parallel.Workers(par), [][]float64(nil)
		if e.temps != nil {
			workers, rows = innerWorkers(par, e.temps[k]), e.temps[k].rows
		}
		parallel.ForWorker(n, workers, func(worker, lo, hi int) {
			var tmp []float64
			if rows != nil {
				tmp = rows[worker]
			}
			for j := lo; j < hi; j++ {
				if idx != nil {
					kernel(k, p, idx[j], tmp)
				} else {
					kernel(k, p, j, tmp)
				}
			}
		})
	}
}

// distSpace resolves a space selector to the executor's score spaces.
func (e *DistExec) distSpace(space int) ([]voteSpace, error) {
	switch space {
	case DistSpaceMain:
		if e.spaces == nil {
			return nil, fmt.Errorf("fusion: %s has no score space", e.name)
		}
		return e.spaces, nil
	case DistSpaceEps:
		if e.eps == nil {
			return nil, fmt.Errorf("fusion: %s has no error-factor space", e.name)
		}
		return e.eps, nil
	}
	return nil, fmt.Errorf("fusion: unknown space %d", space)
}

// MinMax returns the executor's score extrema — one side of the global
// 2-/3-ESTIMATES rescale (min/max combine exactly across peers). An
// executor without scores answers the (+Inf, -Inf) sentinel.
func (e *DistExec) MinMax(space int) (lo, hi float64, err error) {
	e.flush()
	spaces, err := e.distSpace(space)
	if err != nil {
		return 0, 0, err
	}
	lo, hi = flatMinMax(nil)
	for k := range spaces {
		l, h := flatMinMax(spaces[k].flat)
		if l < lo {
			lo = l
		}
		if h > hi {
			hi = h
		}
	}
	return lo, hi, nil
}

// Rescale applies the global [0,1] rescale to the executor's scores —
// element-wise, so the split across peers changes nothing.
func (e *DistExec) Rescale(space int, lo, hi float64) error {
	e.flush()
	spaces, err := e.distSpace(space)
	if err != nil {
		return err
	}
	for k := range spaces {
		xs := spaces[k].flat
		parallel.For(len(xs), e.opts.Parallelism, func(a, b int) {
			rescaleSpan(xs[a:b], lo, hi)
		})
	}
	return nil
}

// Fold folds the executor's items into the running accumulator in
// ascending global item order and returns it — one link of the fold
// chain. The accumulator layout is per-method (see the loops below).
func (e *DistExec) Fold(fold int, trust []float64, byKey [][]float64, acc [][]float64) ([][]float64, error) {
	want, f := e.fold(fold, trust, byKey, acc)
	if f == nil {
		return nil, fmt.Errorf("fusion: fold %d not defined for %s", fold, e.name)
	}
	if len(acc) != want {
		return nil, fmt.Errorf("fusion: fold %d for %s needs %d accumulators, got %d", fold, e.name, want, len(acc))
	}
	phase := e.pending
	e.pending = nil
	e.sp.sweep(e.opts.Parallelism, phase, f)
	return acc, nil
}

// fold returns the accumulator count and the per-item fold of a fold
// selector (nil when undefined).
func (e *DistExec) fold(fold int, trust []float64, byKey [][]float64, acc [][]float64) (int, func(k int, p *Problem, i, g int)) {
	if fold == DistFoldAccuMean {
		if e.kind != dkAccu || e.numKeys == 0 {
			return 0, nil
		}
		return 2, func(k int, p *Problem, i, g int) {
			accuMeanFold(&p.Items[i], e.keyAt(k, p, i), byKey, acc[0], acc[1])
		}
	}
	if fold != DistFoldTrust {
		return 0, nil
	}
	switch e.kind {
	case dkHub, dkAvgLog:
		return 1, func(k int, p *Problem, i, g int) { voteMassFold(&p.Items[i], e.spaces[k].row(i), acc[0]) }
	case dkInvest, dkPooledInvest:
		// Refill the shares table from the fold's own trust argument: a
		// remote worker's Phase and Fold arrive as separate calls, so the
		// table cannot be assumed to carry over.
		investShares(e.shares, trust, e.cps)
		return 1, func(k int, p *Problem, i, g int) {
			investFold(&p.Items[i], e.shares, e.spaces[k].row(i), e.aux[k].row(i), acc[0])
		}
	case dkCosine:
		return 3, func(k int, p *Problem, i, g int) { cosineFold(&p.Items[i], e.spaces[k].row(i), acc[0], acc[1], acc[2]) }
	case dkTwoEst:
		return 2, func(k int, p *Problem, i, g int) { twoEstFold(&p.Items[i], e.spaces[k].row(i), acc[0], acc[1]) }
	case dkThreeEst:
		return 2, func(k int, p *Problem, i, g int) {
			threeEstFold(&p.Items[i], e.spaces[k].row(i), e.eps[k].row(i), acc[0], acc[1])
		}
	case dkTF:
		return 2, func(k int, p *Problem, i, g int) { tfFold(&p.Items[i], e.spaces[k].row(i), acc[0], acc[1]) }
	case dkAccu:
		if e.numKeys > 0 {
			return 2, func(k int, p *Problem, i, g int) {
				accuFoldKeyed(&p.Items[i], int(e.keyAt(k, p, i)), e.numKeys, e.probs[g], acc[0], acc[1])
			}
		}
		return 2, func(k int, p *Problem, i, g int) { accuFoldGlobal(&p.Items[i], e.probs[g], acc[0], acc[1]) }
	}
	return 0, nil
}

// detect is ACCUCOPY's per-round step (in-process only): copy detection
// over the observations gathered in global item order — identical, entry
// for entry, to the flat detector's — then per-shard independence
// weights for the next phase. Frozen after round 8, as in AccuCopy.Run.
func (e *DistExec) detect(round int, trust *accuTrust) {
	const freezeAfter = 8
	if round > freezeAfter && e.weights != nil {
		return
	}
	e.flush()
	sp, opts := e.sp, e.opts
	acc := append([]float64(nil), trust.global...)
	obs := make([]copydetect.Observation, sp.NumItems())
	sp.sweep(opts.Parallelism, func(k int, p *Problem, par int) {
		gi := sp.parts[k].gidx
		parallel.For(len(p.Items), par, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				g := gi[i]
				buildObservation(&p.Items[i], e.chosen[g], e.probs[g], opts, &obs[g])
			}
		})
	}, nil)
	dep := copydetect.Detect(len(sp.SourceIDs), obs, acc, copydetect.Options{
		NFalse:         opts.NFalse,
		UniformFalse:   opts.CopyDetectPaper2009,
		Parallelism:    opts.Parallelism,
		CountChunkSize: opts.CopyDetectChunkSize,
	})
	w := make([]claimWeights, len(sp.parts))
	sp.sweep(opts.Parallelism, func(k int, p *Problem, par int) {
		w[k] = independenceWeights(p, acc, dep, par)
	}, nil)
	e.weights = w
}

// seedWarm starts an ACCU executor built with dirty lists from prev, the
// result computed on prevSP (the same spec before the delta): clean items
// share prev's posterior rows read-only (prevIdxOf[k] aligns shard k's
// items to the old ones, nil for untouched shards), and every other item
// gets a fresh row, fully rewritten by the first phase before any fold
// reads it — so a warm run allocates rows for its rebuilt items only, as
// the flat accuWarm does. It returns prev's converged trust as the loop's
// warm start, and false when prev lacks the state.
func (e *DistExec) seedWarm(prevSP *ShardedProblem, prev *Result, prevIdxOf [][]int) (*accuTrust, bool) {
	base := &accuTrust{keyed: e.numKeys > 0}
	if base.keyed {
		base.byKey = prev.AttrTrust
	} else {
		base.global = prev.Trust
	}
	if prev.Posteriors == nil || prev.Chosen == nil || (base.byKey == nil && base.global == nil) {
		return nil, false
	}
	for _, row := range base.byKey {
		if len(row) != e.numKeys {
			return nil, false
		}
	}
	for k, npt := range e.sp.parts {
		prevGidx := prevSP.parts[k].gidx
		for i, g := range npt.gidx {
			pi := i
			if prevIdxOf[k] != nil {
				pi = prevIdxOf[k][i]
			}
			if pi >= 0 {
				e.probs[g], e.chosen[g] = prev.Posteriors[prevGidx[pi]], prev.Chosen[prevGidx[pi]]
			} else {
				e.probs[g] = make([]float64, npt.off[i+1]-npt.off[i])
			}
		}
	}
	return base, true
}

// Problem returns the executor's shard set (for answer rendering).
func (e *DistExec) Problem() *ShardedProblem { return e.sp }

// LocalResult assembles the executor's slice of the global result: its
// items' chosen buckets (and posteriors for the ACCU family) under the
// loop's converged trust. Concatenating the workers' answers in shard
// order reproduces the flat result exactly.
func (e *DistExec) LocalResult(trust []float64, attrTrust [][]float64, rounds int, converged bool) *Result {
	e.flush()
	res := &Result{
		Method:    e.name,
		Trust:     trust,
		AttrTrust: attrTrust,
		Rounds:    rounds,
		Converged: converged,
	}
	switch e.kind {
	case dkVote:
		res.Chosen = make([]int32, e.sp.NumItems())
	case dkAccu:
		res.Chosen, res.Posteriors = e.chosen, e.probs
	default:
		res.Chosen = chooseSharded(e.sp, e.spaces)
	}
	return res
}

// run drives the executor's method to convergence in-process — the
// loops DistRun drives over workers, over this one executor. warm, when
// set, is the ACCU warm start (seedWarm): the run fails with
// errWarmDrift once any trust entry drifts past tol from it.
func (e *DistExec) run(warm *accuTrust, tol float64) (*Result, error) {
	d := &distDriver{peers: []DistPeer{e}, opts: e.opts, res: &DistResult{Method: e.name}, warm: warm, tol: tol}
	if e.cfg.copies {
		d.detect = e.detect
	}
	if err := d.run(e.kind, e.cfg, len(e.sp.SourceIDs), e.numKeys, e.cps); err != nil {
		return nil, err
	}
	r := d.res
	return e.LocalResult(r.Trust, r.AttrTrust, r.Rounds, r.Converged), nil
}

// DistResult is a distributed run's outcome: the converged global trust
// state plus the coordinator's timing split (concurrent phase/rescale
// broadcasts vs the sequential cross-worker fold chain).
type DistResult struct {
	Method    string
	Trust     []float64
	AttrTrust [][]float64
	Rounds    int
	Converged bool
	Elapsed   time.Duration
	Broadcast time.Duration // cumulative wall time of concurrent phase/rescale broadcasts
	Gather    time.Duration // cumulative wall time of the sequential fold chains
}

// errWarmDrift aborts a warm run whose trust left the tolerance.
var errWarmDrift = errors.New("fusion: warm trust drifted past the tolerance")

// distDriver carries the round loops' shared machinery.
type distDriver struct {
	peers []DistPeer
	opts  Options
	res   *DistResult

	// In-process only: ACCUCOPY's detection step, and the warm start
	// with its drift tolerance.
	detect func(round int, trust *accuTrust)
	warm   *accuTrust
	tol    float64
}

// broadcastPhase runs one phase step on every peer concurrently — phases
// touch only peer-local state, so order does not matter.
func (d *distDriver) broadcastPhase(step int, trust []float64, byKey [][]float64) error {
	return d.broadcast(func(p DistPeer) error { return p.Phase(step, trust, byKey) })
}

func (d *distDriver) broadcast(f func(p DistPeer) error) error {
	start := time.Now()
	defer func() { d.res.Broadcast += time.Since(start) }()
	errs := make([]error, len(d.peers))
	var wg sync.WaitGroup
	for i, p := range d.peers {
		wg.Add(1)
		go func(i int, p DistPeer) {
			defer wg.Done()
			errs[i] = f(p)
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// rescale runs the global [0,1] renormalisation: gather every peer's
// extrema, combine (exact — min/max have no association sensitivity),
// broadcast the rescale. Like rescaleFlat it leaves degenerate scores
// untouched.
func (d *distDriver) rescale(space int) error {
	lo, hi := flatMinMax(nil)
	var mu sync.Mutex
	err := d.broadcast(func(p DistPeer) error {
		l, h, err := p.MinMax(space)
		if err != nil {
			return err
		}
		mu.Lock()
		if l < lo {
			lo = l
		}
		if h > hi {
			hi = h
		}
		mu.Unlock()
		return nil
	})
	if err != nil || hi <= lo {
		return err
	}
	return d.broadcast(func(p DistPeer) error { return p.Rescale(space, lo, hi) })
}

// foldChain threads the accumulator through the peers in ascending shard
// order — the sequential global-item-order trust merge. Every reply is
// checked before the next peer sees it, so a short row is reported
// against the peer that sent it. The caller's acc buffers hold the final
// fold when it returns: an in-process peer mutates them in place, but a
// remote peer answers with freshly decoded slices, so the chain's
// outcome is copied back rather than assumed aliased.
func (d *distDriver) foldChain(fold int, trust []float64, byKey [][]float64, acc [][]float64) error {
	start := time.Now()
	defer func() { d.res.Gather += time.Since(start) }()
	cur := acc
	for w, p := range d.peers {
		var err error
		if cur, err = p.Fold(fold, trust, byKey, cur); err != nil {
			return err
		}
		if len(cur) != len(acc) {
			return fmt.Errorf("fusion: fold %d: peer %d returned %d accumulators, want %d", fold, w, len(cur), len(acc))
		}
		for i := range acc {
			if len(cur[i]) != len(acc[i]) {
				return fmt.Errorf("fusion: fold %d: peer %d returned accumulator %d with %d entries, want %d",
					fold, w, i, len(cur[i]), len(acc[i]))
			}
		}
	}
	for i := range acc {
		copy(acc[i], cur[i])
	}
	return nil
}

// run dispatches a method to its loop: VOTE has no rounds, the ACCU
// family runs runAccu, every other method runVector.
func (d *distDriver) run(kind distKind, cfg accuConfig, n, numKeys int, cps []int) error {
	switch kind {
	case dkVote:
		d.res.Rounds, d.res.Converged = 1, true
		return nil
	case dkAccu:
		return d.runAccu(cfg, n, numKeys)
	}
	return d.runVector(vectorProgram(kind, cps), n)
}

// vecProgram is one single-trust-vector method's round: the start trust
// (replaced by supplied trust), the phase steps (with rescale, each step
// is followed by a global rescale of its space), the accumulator count of
// the trust fold, and the tail turning the accumulators into the next
// trust vector.
type vecProgram struct {
	start     float64
	steps     []int
	rescale   bool
	accs      int
	foldTrust bool // the fold reads the round's trust (INVEST)
	tail      func(trust []float64, acc [][]float64, next []float64)
}

func vectorProgram(kind distKind, cps []int) vecProgram {
	main := []int{DistPhaseMain}
	switch kind {
	case dkHub:
		return vecProgram{start: 1, steps: main, accs: 1, tail: func(_ []float64, acc [][]float64, next []float64) {
			copy(next, acc[0])
			normalizeMax(next)
		}}
	case dkAvgLog:
		logc := logClaimCounts(cps)
		return vecProgram{start: 1, steps: main, accs: 1, tail: func(_ []float64, acc [][]float64, next []float64) {
			avgLogTail(cps, logc, acc[0], next)
			normalizeMax(next)
		}}
	case dkInvest, dkPooledInvest:
		pooled := kind == dkPooledInvest
		return vecProgram{start: 1, steps: main, accs: 1, foldTrust: true, tail: func(_ []float64, acc [][]float64, next []float64) {
			copy(next, acc[0])
			if !pooled {
				normalizeMax(next)
			}
		}}
	case dkCosine:
		return vecProgram{start: 0.5, steps: main, accs: 3, tail: func(trust []float64, acc [][]float64, next []float64) {
			cosineTail(trust, acc[0], acc[1], acc[2], next)
		}}
	case dkTwoEst, dkThreeEst:
		pr := vecProgram{start: 0.8, steps: main, rescale: true, accs: 2, tail: func(_ []float64, acc [][]float64, next []float64) {
			copy(next, acc[0])
			divideBy(next, acc[1])
			rescale01(next)
		}}
		if kind == dkThreeEst {
			pr.steps = []int{DistPhaseMain, DistPhaseEps}
		}
		return pr
	}
	return vecProgram{start: tfInitial, steps: main, accs: 2, tail: func(_ []float64, acc [][]float64, next []float64) {
		copy(next, acc[0])
		tfTail(next, acc[1])
	}}
}

// runVector is the round loop of the single-trust-vector methods. With
// InputTrust supplied there is no estimation: one round of phases under
// the given trust.
func (d *distDriver) runVector(pr vecProgram, n int) error {
	opts, res := d.opts, d.res
	trust := initTrust(n, opts.startTrust(), pr.start)
	next := make([]float64, n)
	acc := make([][]float64, pr.accs)
	for a := range acc {
		acc[a] = make([]float64, n)
	}
	for round := 1; ; round++ {
		res.Rounds = round
		for _, step := range pr.steps {
			if err := d.broadcastPhase(step, trust, nil); err != nil {
				return err
			}
			if pr.rescale {
				if err := d.rescale(step); err != nil {
					return err
				}
			}
		}
		if opts.InputTrust != nil {
			res.Trust, res.Converged = trust, true
			return nil
		}
		for _, a := range acc {
			clear(a)
		}
		var foldTrust []float64
		if pr.foldTrust {
			foldTrust = trust
		}
		if err := d.foldChain(DistFoldTrust, foldTrust, nil, acc); err != nil {
			return err
		}
		pr.tail(trust, acc, next)
		delta := maxDelta(trust, next)
		trust, next = next, trust
		if delta < opts.Epsilon || round >= opts.MaxRounds {
			res.Trust, res.Converged = trust, delta < opts.Epsilon
			return nil
		}
	}
}

// accuTrustGiven reports whether supplied trust replaces the ACCU
// estimation loop.
func accuTrustGiven(opts Options, cfg accuConfig) bool {
	return opts.InputTrust != nil || (cfg.perAttr && opts.InputAttrTrust != nil)
}

// accuStart returns the ACCU family's cold start trust, from supplied
// trust where given — exactly accuIterate's.
func accuStart(n, numKeys int, cfg accuConfig, opts Options) *accuTrust {
	if numKeys == 0 {
		return &accuTrust{global: initTrust(n, opts.startTrust(), 0.8)}
	}
	attrGiven := cfg.perAttr && opts.InputAttrTrust != nil
	t := &accuTrust{keyed: true, byKey: make([][]float64, n)}
	for s := range t.byKey {
		v := 0.8
		if st := opts.startTrust(); st != nil && !attrGiven {
			v = st[s]
		}
		row := make([]float64, numKeys)
		for a := range row {
			row[a] = v
		}
		if attrGiven {
			copy(row, opts.InputAttrTrust[s])
		}
		t.byKey[s] = row
	}
	return t
}

// runAccu is the ACCU family's round loop over numKeys trust keys (0 =
// one global key), ending with the keyed finish: the per-source mean of
// the keyed trust, folded in global item order.
func (d *distDriver) runAccu(cfg accuConfig, n, numKeys int) error {
	opts, res := d.opts, d.res
	trust := accuStart(n, numKeys, cfg, opts)
	if d.warm != nil {
		trust = &accuTrust{keyed: d.warm.keyed, global: append([]float64(nil), d.warm.global...)}
		for _, row := range d.warm.byKey {
			trust.byKey = append(trust.byKey, append([]float64(nil), row...))
		}
	}
	given := accuTrustGiven(opts, cfg)
	width := n
	if numKeys > 0 {
		width *= numKeys
	}
	sc := &accuScratch{next: make([]float64, width), cnt: make([]float64, width)}
	acc := make([][]float64, 2)
	for round := 1; ; round++ {
		res.Rounds = round
		if d.detect != nil {
			d.detect(round, trust)
		}
		if err := d.broadcastPhase(DistPhaseMain, trust.global, trust.byKey); err != nil {
			return err
		}
		if given {
			// With sampled trust there is no estimation loop; ACCUCOPY
			// still refines its copy weights until choices stabilise.
			if d.detect == nil || round >= 5 {
				res.Converged = true
				break
			}
			continue
		}
		clear(sc.next)
		clear(sc.cnt)
		acc[0], acc[1] = sc.next, sc.cnt
		if err := d.foldChain(DistFoldTrust, nil, nil, acc); err != nil {
			return err
		}
		var delta float64
		if trust.keyed {
			delta = accuKeyedTail(trust, numKeys, sc.next, sc.cnt)
		} else {
			delta = accuGlobalTail(trust, sc)
		}
		if d.warm != nil && trustDrift(trust, d.warm.global, d.warm.byKey) > d.tol {
			return errWarmDrift
		}
		if delta < opts.Epsilon || round >= opts.MaxRounds {
			res.Converged = delta < opts.Epsilon
			break
		}
	}
	if !trust.keyed {
		res.Trust = trust.global
		return nil
	}
	if cfg.perAttr {
		res.AttrTrust = trust.byKey
	}
	res.Trust = make([]float64, n)
	claims := make([]float64, n)
	if err := d.foldChain(DistFoldAccuMean, nil, trust.byKey, [][]float64{res.Trust, claims}); err != nil {
		return err
	}
	divideBy(res.Trust, claims)
	return nil
}

// DistRun drives one method to convergence over the peers, which must be
// ordered by ascending owned shard range and together cover every shard
// exactly once. n is the shared roster size, numAttrs the dataset's
// attribute count (the per-attribute ACCU key space), cps the global
// per-source claim counts (the sum of the workers' local counts). The
// returned trust state is bit-identical to flat Fuse on the union
// snapshot; per-worker answers come from DistExec.LocalResult.
func DistRun(m Method, opts Options, peers []DistPeer, n, numAttrs int, cps []int) (*DistResult, error) {
	if err := DistCheck(m, opts); err != nil {
		return nil, err
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("fusion: distributed %s needs at least one worker", m.Name())
	}
	kind, cfg, _ := methodKind(m)
	numKeys := 0
	if cfg.perAttr {
		numKeys = numAttrs
	}
	start := time.Now()
	d := &distDriver{peers: peers, opts: opts.withDefaults(), res: &DistResult{Method: m.Name()}}
	if err := d.run(kind, cfg, n, numKeys, cps); err != nil {
		return nil, err
	}
	d.res.Elapsed = time.Since(start)
	return d.res, nil
}
