package fusion

import (
	"errors"
	"fmt"
	"sync"
	"time"

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
// the ACCU family (runAccu). These loops are the only code that runs a
// round. ShardedProblem.Run runs them over one in-process DistExec that
// spans every shard, and Method.Run over the caller's Problem wrapped as
// one part (onePart); a distributed run drives one DistExec per worker
// (internal/dist wraps it in HTTP), chaining the folds through the
// workers in ascending shard order. Range sharding makes worker order
// equal global item order, and every fold visits items in global item
// order, so the floating-point association never depends on the layout:
// results are bit-identical at any shard or worker count. The per-item
// kernels live with their methods (weblink.go, ir.go, bayes.go, copy.go);
// testdata/golden_digests.txt freezes what the loops compute.

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

// distKind selects a method's phase/fold kernels and round loop. The
// zero kind is no method's: the zero Method has no round program.
type distKind int

const (
	_ distKind = iota
	dkVote
	dkHub
	dkAvgLog
	dkInvest
	dkPooledInvest
	dkCosine
	dkTwoEst
	dkThreeEst
	dkTF
	dkAccu
	// dkEnsemble composes whole member runs and has no round program of
	// its own (ShardedProblem.Run votes over its members).
	dkEnsemble
)

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
	if wholeRun(m) || opts.KnownGroups != nil {
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
// Every kernel, fold and shard pass is built once per executor and reads
// the round's trust state and accumulators from the executor's fields:
// a warm round allocates nothing.
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

	// The round's inputs. Phase sets trust and byKey (the kernels read
	// them, also when a deferred pass runs later), Fold sets the
	// accumulators and the fold's own trust state.
	trust     []float64
	byKey     [][]float64
	acc       [][]float64
	foldByKey [][]float64

	// kernels[step] scores one item (nil where the step is undefined);
	// kernel is the current step's. pass runs it over one shard, fanning
	// out through scan when it has workers to fan out to. folds[f]
	// consumes one item into acc, which must hold accs[f] vectors.
	kernels [2]func(k int, p *Problem, i int, tmp []float64)
	kernel  func(k int, p *Problem, i int, tmp []float64)
	pass    func(k int, p *Problem, par int)
	scan    shardScan
	folds   [2]func(k int, p *Problem, i, g int)
	accs    [2]int
	pending bool // a deferred phase pass (budget mode)

	// Rescale's span body and its inputs.
	rescaleBody          func(a, b int)
	rescaleXs            []float64
	rescaleLo, rescaleHi float64

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

// shardScan is the slot of a fanned-out shard pass: the pass records the
// shard's problem, item list, temp rows and kernel here, then fans the
// slot's body (bound once per executor) out over the items. Only a pass
// with more than one worker fans out, and those run one shard at a time
// (concurrent shard phases each get one worker), so one slot serves
// every shard.
type shardScan struct {
	k      int
	p      *Problem
	idx    []int
	rows   [][]float64
	kernel func(k int, p *Problem, i int, tmp []float64)
	body   func(worker, lo, hi int)
}

// run scores items [lo, hi) of the pass (through idx after a warm seed).
func (s *shardScan) run(worker, lo, hi int) {
	var tmp []float64
	if s.rows != nil {
		tmp = s.rows[worker]
	}
	for j := lo; j < hi; j++ {
		i := j
		if s.idx != nil {
			i = s.idx[j]
		}
		s.kernel(s.k, s.p, i, tmp)
	}
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
	if m.kind == 0 || m.kind == dkEnsemble {
		return nil, fmt.Errorf("fusion: method %q has no round program", m.name)
	}
	opts = opts.withDefaults()
	e := &DistExec{sp: sp, kind: m.kind, cfg: m.cfg, opts: opts, name: m.name, cps: cps, dirty: dirty}
	if e.cps == nil {
		e.cps = sp.ClaimsPerSource
	}
	n := len(sp.SourceIDs)
	switch m.kind {
	case dkVote:
		// The dominant bucket is bucket 0; no rounds, no state.
		return e, nil
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
		e.resolveKeys()
		e.tables = newAccuTables(n, e.numKeys, opts, m.cfg)
		if m.cfg.popularity {
			e.popTabs = make([]*popTable, len(sp.parts))
		}
		e.probs = make([][]float64, sp.NumItems())
		e.chosen = make([]int32, sp.NumItems()) // starts at the dominant bucket
		if dirty != nil {
			break // rows from seedWarm
		}
		// Posteriors: per-shard flat arenas with global row views in item
		// order.
		for _, pt := range sp.parts {
			flat := make([]float64, pt.numBuckets())
			for i := 0; i < pt.n; i++ {
				e.probs[pt.base+i] = flat[pt.off[i]:pt.off[i+1]:pt.off[i+1]]
			}
		}
		if m.cfg.copies {
			// Seed the posteriors with provider shares (the VOTE prior) so
			// the first detection round sees sensible uncertainty. Plain
			// runs skip the pass: round 1 rewrites every row before any
			// fold reads it.
			sp.sweep(opts.Parallelism, nil, func(k int, p *Problem, i, g int) {
				it := &p.Items[i]
				for b, bk := range it.Buckets {
					e.probs[g][b] = float64(len(bk.Sources)) / float64(it.Providers)
				}
			})
		}
	}
	e.bind()
	return e, nil
}

// resolveKeys resolves the ACCU trust key space over the shard set: the
// global attribute table for the Attr variants, the globally numbered
// category table for the Cat extension, a single key otherwise.
func (e *DistExec) resolveKeys() {
	e.keyAt = func(int, *Problem, int) int32 { return 0 }
	switch {
	case e.cfg.perAttr:
		e.numKeys = e.sp.NumAttrs
		e.keyAt = func(k int, p *Problem, i int) int32 { return int32(p.Items[i].Attr) }
	case e.cfg.perCat:
		numCats, cats := e.sp.globalCats()
		e.numKeys = max(numCats, 1)
		if cats != nil {
			e.keyAt = func(k int, p *Problem, i int) int32 { return cats[k][i] }
		}
	}
}

// bind builds the executor's kernels, folds and shard passes, once.
func (e *DistExec) bind() {
	main := &e.kernels[DistPhaseMain]
	trustFold := &e.folds[DistFoldTrust]
	switch e.kind {
	case dkHub, dkAvgLog:
		*main = func(k int, p *Problem, i int, _ []float64) {
			voteMassItem(&p.Items[i], e.trust, e.spaces[k].row(i))
		}
		e.accs[DistFoldTrust], *trustFold = 1, func(k int, p *Problem, i, _ int) {
			voteMassFold(&p.Items[i], e.spaces[k].row(i), e.acc[0])
		}
	case dkInvest, dkPooledInvest:
		pooled := e.kind == dkPooledInvest
		*main = func(k int, p *Problem, i int, _ []float64) {
			investItem(&p.Items[i], e.shares, e.spaces[k].row(i), e.aux[k].row(i), pooled)
		}
		e.accs[DistFoldTrust], *trustFold = 1, func(k int, p *Problem, i, _ int) {
			investFold(&p.Items[i], e.shares, e.spaces[k].row(i), e.aux[k].row(i), e.acc[0])
		}
	case dkCosine:
		*main = func(k int, p *Problem, i int, tmp []float64) {
			cosineScoreItem(&p.Items[i], e.cube, e.spaces[k].row(i), tmp)
		}
		e.accs[DistFoldTrust], *trustFold = 3, func(k int, p *Problem, i, _ int) {
			cosineFold(&p.Items[i], e.spaces[k].row(i), e.acc[0], e.acc[1], e.acc[2])
		}
	case dkTwoEst:
		*main = func(k int, p *Problem, i int, _ []float64) {
			twoEstVoteItem(&p.Items[i], e.trust, e.spaces[k].row(i))
		}
		e.accs[DistFoldTrust], *trustFold = 2, func(k int, p *Problem, i, _ int) {
			twoEstFold(&p.Items[i], e.spaces[k].row(i), e.acc[0], e.acc[1])
		}
	case dkThreeEst:
		*main = func(k int, p *Problem, i int, _ []float64) {
			threeEstSigmaItem(&p.Items[i], e.trust, e.spaces[k].row(i), e.eps[k].row(i))
		}
		e.kernels[DistPhaseEps] = func(k int, p *Problem, i int, _ []float64) {
			threeEstEpsItem(&p.Items[i], e.trust, e.spaces[k].row(i), e.eps[k].row(i))
		}
		e.accs[DistFoldTrust], *trustFold = 2, func(k int, p *Problem, i, _ int) {
			threeEstFold(&p.Items[i], e.spaces[k].row(i), e.eps[k].row(i), e.acc[0], e.acc[1])
		}
	case dkTF:
		*main = func(k int, p *Problem, i int, tmp []float64) {
			tfConfItem(&p.Items[i], p.Sim[i], e.nlg, e.spaces[k].row(i), tmp)
		}
		e.accs[DistFoldTrust], *trustFold = 2, func(k int, p *Problem, i, _ int) {
			tfFold(&p.Items[i], e.spaces[k].row(i), e.acc[0], e.acc[1])
		}
	case dkAccu:
		*main = func(k int, p *Problem, i int, tmp []float64) {
			var popLg, popCnt []float64
			if e.popTabs != nil {
				popLg, popCnt = e.popTabs[k].rows(i)
			}
			var w [][]float64
			if e.weights != nil {
				w = e.weights[k][i]
			}
			g := e.sp.parts[k].base + i
			e.chosen[g] = accuPosterior(p, i, e.opts, e.cfg, e.tables.row(e.keyAt(k, p, i)), popLg, popCnt, w, e.probs[g], tmp)
		}
		e.accs[DistFoldTrust] = 2
		if e.numKeys > 0 {
			*trustFold = func(k int, p *Problem, i, g int) {
				accuFoldKeyed(&p.Items[i], int(e.keyAt(k, p, i)), e.numKeys, e.probs[g], e.acc[0], e.acc[1])
			}
			e.accs[DistFoldAccuMean], e.folds[DistFoldAccuMean] = 2, func(k int, p *Problem, i, _ int) {
				accuMeanFold(&p.Items[i], e.keyAt(k, p, i), e.foldByKey, e.acc[0], e.acc[1])
			}
		} else {
			*trustFold = func(_ int, p *Problem, i, g int) {
				accuFoldGlobal(&p.Items[i], e.probs[g], e.acc[0], e.acc[1])
			}
		}
	}
	if e.kind == dkTwoEst || e.kind == dkThreeEst {
		e.rescaleBody = func(a, b int) { rescaleSpan(e.rescaleXs[a:b], e.rescaleLo, e.rescaleHi) }
	}
	e.pass = e.scanShard
}

// flush runs a deferred phase.
func (e *DistExec) flush() {
	if e.pending {
		e.pending = false
		e.sp.sweep(e.opts.Parallelism, e.pass, nil)
	}
}

// Phase runs one per-item scoring pass over the shards under the loop's
// trust state (deferred over a memory budget, see DistExec).
func (e *DistExec) Phase(step int, trust []float64, byKey [][]float64) error {
	e.flush()
	if step < 0 || step >= len(e.kernels) || e.kernels[step] == nil {
		return fmt.Errorf("fusion: phase %d not defined for %s", step, e.name)
	}
	e.trust, e.byKey, e.kernel = trust, byKey, e.kernels[step]
	e.refill()
	if e.sp.budget() {
		e.pending = true
		return nil
	}
	e.sp.sweep(e.opts.Parallelism, e.pass, nil)
	return nil
}

// refill refreshes the round's score tables from the phase's trust state.
func (e *DistExec) refill() {
	switch e.kind {
	case dkInvest, dkPooledInvest:
		investShares(e.shares, e.trust, e.cps)
	case dkCosine:
		cosineCubeTable(e.cube, e.trust)
	case dkTF:
		tfLogTable(e.nlg, e.trust)
	case dkAccu:
		e.tables.update(&accuTrust{keyed: e.numKeys > 0, global: e.trust, byKey: e.byKey})
	}
}

// scanShard is the shard pass of the current kernel. Items write
// disjoint state, so the pass fans out bit-identically at any
// parallelism. After a warm seed only the shard's rebuilt items are
// scored.
func (e *DistExec) scanShard(k int, p *Problem, par int) {
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
	s := shardScan{k: k, p: p, idx: idx, kernel: e.kernel}
	workers := parallel.Workers(par)
	if e.temps != nil {
		workers, s.rows = innerWorkers(par, e.temps[k]), e.temps[k].rows
	}
	if workers <= 1 {
		s.run(0, 0, n)
		return
	}
	if e.scan.body == nil {
		e.scan.body = e.scan.run
	}
	s.body = e.scan.body
	e.scan = s
	parallel.ForWorker(n, workers, s.body)
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
	e.rescaleLo, e.rescaleHi = lo, hi
	for k := range spaces {
		e.rescaleXs = spaces[k].flat
		parallel.For(len(e.rescaleXs), e.opts.Parallelism, e.rescaleBody)
	}
	return nil
}

// Fold folds the executor's items into the running accumulator in
// ascending global item order and returns it — one link of the fold
// chain. The accumulator layout is per-method (see the loops below).
func (e *DistExec) Fold(fold int, trust []float64, byKey [][]float64, acc [][]float64) ([][]float64, error) {
	if fold < 0 || fold >= len(e.folds) || e.folds[fold] == nil {
		return nil, fmt.Errorf("fusion: fold %d not defined for %s", fold, e.name)
	}
	if want := e.accs[fold]; len(acc) != want {
		return nil, fmt.Errorf("fusion: fold %d for %s needs %d accumulators, got %d", fold, e.name, want, len(acc))
	}
	if e.kind == dkInvest || e.kind == dkPooledInvest {
		// Refill the shares table from the fold's own trust argument: a
		// remote worker's Phase and Fold arrive as separate calls, so the
		// table cannot be assumed to carry over.
		investShares(e.shares, trust, e.cps)
	}
	e.acc, e.foldByKey = acc, byKey
	var phase func(k int, p *Problem, par int)
	if e.pending {
		e.pending, phase = false, e.pass
	}
	e.sp.sweep(e.opts.Parallelism, phase, e.folds[fold])
	return acc, nil
}

// detect is ACCUCOPY's per-round step (in-process only): copy detection
// over the executor's current choices and posteriors (detectCopies),
// then per-shard independence weights for the next phase. Detection is
// refreshed for the first rounds and then frozen, so the joint iteration
// of copy probabilities, value probabilities and accuracies can settle
// instead of oscillating on borderline items.
func (e *DistExec) detect(round int, trust *accuTrust) {
	const freezeAfter = 8
	if round > freezeAfter && e.weights != nil {
		return
	}
	e.flush()
	sp, opts := e.sp, e.opts
	acc := append([]float64(nil), trust.global...)
	dep := detectCopies(sp, e.chosen, e.probs, acc, opts)
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
// reads it — so a warm run allocates rows for its rebuilt items only. It
// returns prev's converged trust as the loop's warm start, and false when
// prev lacks the state.
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
		prevBase := prevSP.parts[k].base
		for i := 0; i < npt.n; i++ {
			g, pi := npt.base+i, i
			if prevIdxOf[k] != nil {
				pi = prevIdxOf[k][i]
			}
			if pi >= 0 {
				e.probs[g], e.chosen[g] = prev.Posteriors[prevBase+pi], prev.Chosen[prevBase+pi]
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
// order reproduces the one-process result exactly.
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
	d := newDistDriver([]DistPeer{e}, e.opts, e.name)
	d.warm, d.tol = warm, tol
	if e.cfg.copies {
		d.detect = e.detect
	}
	if err := d.run(e.kind, e.cfg, len(e.sp.SourceIDs), e.numKeys, e.cps); err != nil {
		return nil, err
	}
	r := &d.res
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

// distDriver carries the round loops' shared machinery. A broadcast
// names its call by an opcode and reads the call's arguments from the
// driver, so a round allocates nothing beyond the peers' own work.
type distDriver struct {
	peers []DistPeer
	opts  Options
	res   DistResult

	// In-process only: ACCUCOPY's detection step, and the warm start
	// with its drift tolerance.
	detect func(round int, trust *accuTrust)
	warm   *accuTrust
	tol    float64

	// Broadcast state: the error slots of the peers run on their own
	// goroutines (all but the last), and the calls' arguments — the phase
	// step and trust, the rescale space and the gathered extrema.
	errs   []error
	wg     sync.WaitGroup
	mu     sync.Mutex
	step   int
	trust  []float64
	byKey  [][]float64
	space  int
	lo, hi float64
}

// The broadcast calls.
const (
	callPhase = iota
	callMinMax
	callRescale
)

// newDistDriver prepares a driver over the peers.
func newDistDriver(peers []DistPeer, opts Options, method string) *distDriver {
	return &distDriver{peers: peers, opts: opts, res: DistResult{Method: method}, errs: make([]error, len(peers)-1)}
}

// call runs one broadcast call on a peer.
func (d *distDriver) call(op int, p DistPeer) error {
	switch op {
	case callPhase:
		return p.Phase(d.step, d.trust, d.byKey)
	case callMinMax:
		l, h, err := p.MinMax(d.space)
		if err != nil {
			return err
		}
		d.mu.Lock()
		d.lo, d.hi = min(d.lo, l), max(d.hi, h)
		d.mu.Unlock()
		return nil
	}
	return p.Rescale(d.space, d.lo, d.hi)
}

// broadcastPhase runs one phase step on every peer concurrently — phases
// touch only peer-local state, so order does not matter.
func (d *distDriver) broadcastPhase(step int, trust []float64, byKey [][]float64) error {
	d.step, d.trust, d.byKey = step, trust, byKey
	return d.broadcast(callPhase)
}

// broadcast runs a call on every peer concurrently, the last one on the
// calling goroutine (an in-process run starts no goroutine).
func (d *distDriver) broadcast(op int) error {
	start := time.Now()
	defer func() { d.res.Broadcast += time.Since(start) }()
	last := len(d.peers) - 1
	for i, p := range d.peers[:last] {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.errs[i] = d.call(op, p)
		}()
	}
	err := d.call(op, d.peers[last])
	d.wg.Wait()
	return errors.Join(errors.Join(d.errs...), err)
}

// rescale runs the global [0,1] renormalisation: gather every peer's
// extrema, combine (exact — min/max have no association sensitivity),
// broadcast the rescale. Degenerate scores (max <= min) stay untouched.
func (d *distDriver) rescale(space int) error {
	d.space = space
	d.lo, d.hi = flatMinMax(nil)
	if err := d.broadcast(callMinMax); err != nil || d.hi <= d.lo {
		return err
	}
	return d.broadcast(callRescale)
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
	opts, res := d.opts, &d.res
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

// accuStart returns the ACCU family's cold start trust: 0.8 for every
// source and key, or the supplied trust where given — per-attribute
// input trust for the Attr variants, else input or initial trust
// repeated across the keys.
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
	opts, res := d.opts, &d.res
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
	sc := accuScratch{next: make([]float64, width), cnt: make([]float64, width)}
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
			delta = accuGlobalTail(trust, &sc)
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
// returned trust state is bit-identical to an in-process run on the
// union snapshot; per-worker answers come from DistExec.LocalResult.
func DistRun(m Method, opts Options, peers []DistPeer, n, numAttrs int, cps []int) (*DistResult, error) {
	if err := DistCheck(m, opts); err != nil {
		return nil, err
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("fusion: distributed %s needs at least one worker", m.Name())
	}
	numKeys := 0
	if m.cfg.perAttr {
		numKeys = numAttrs
	}
	start := time.Now()
	d := newDistDriver(peers, opts.withDefaults(), m.name)
	if err := d.run(m.kind, m.cfg, n, numKeys, cps); err != nil {
		return nil, err
	}
	d.res.Elapsed = time.Since(start)
	return &d.res, nil
}
