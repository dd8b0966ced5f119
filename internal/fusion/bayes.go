package fusion

import (
	"math"
	"time"

	"truthdiscovery/internal/parallel"
)

// The Bayesian methods (Table 6): TRUTHFINDER plus the ACCU family
// (ACCUPR, POPACCU, ACCUSIM, ACCUFORMAT, the per-attribute variants, and —
// in copy.go — ACCUCOPY). The ACCU family shares one engine, accuRun,
// parameterised by which insights are enabled, mirroring how the paper
// derives each method from ACCUPR.

// TruthFinder (Yin et al.) scores a value by the accumulated
// -ln(1 - trust) of its providers, boosts the score with similar values'
// scores, and squashes it into a confidence via a logistic with damping
// factor gamma.
type TruthFinder struct{ identityScale }

// Name implements Method.
func (TruthFinder) Name() string { return "TruthFinder" }

// Needs implements Method.
func (TruthFinder) Needs() BuildOptions { return BuildOptions{NeedSimilarity: true} }

// TruthFinder constants from Yin et al.: rho weights similar values' votes,
// gamma dampens the logistic, and initial trust is 0.9.
const (
	tfRho     = 0.5
	tfGamma   = 0.3
	tfInitial = 0.9
	tfMaxTau  = 0.999999
)

// Run implements Method.
func (TruthFinder) Run(p *Problem, opts Options) *Result {
	opts = opts.withDefaults()
	start := time.Now()
	n := len(p.SourceIDs)
	tau := initTrust(n, opts.startTrust(), tfInitial)
	next := make([]float64, n)
	cnt := make([]float64, n)
	nlg := make([]float64, n) // per-round -ln(1-tau) table
	conf := newVoteSpace(p)
	temps := newWorkerRows(p, opts.Parallelism)
	res := &Result{Method: "TruthFinder"}

	// Per-item confidence phase: every item only reads the shared vote
	// table, writes its own conf row and fully rewrites its worker's
	// raw-score temp, so the loop fans out with bit-identical results at
	// any parallelism.
	confPhase := func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			tfConfItem(&p.Items[i], p.Sim[i], nlg, conf.row(i), temps.rows[worker])
		}
	}

	for round := 1; ; round++ {
		res.Rounds = round
		tfLogTable(nlg, tau)
		parallel.ForWorker(len(p.Items), temps.workers, confPhase)
		if opts.InputTrust != nil {
			res.Converged = true
			break
		}
		clear(next)
		clear(cnt)
		for i := range p.Items {
			tfFold(&p.Items[i], conf.row(i), next, cnt)
		}
		tfTail(next, cnt)
		delta := maxDelta(tau, next)
		tau, next = next, tau
		if delta < opts.Epsilon || round >= opts.MaxRounds {
			res.Converged = delta < opts.Epsilon
			break
		}
	}
	res.Trust = tau
	res.Chosen = choose(p, conf)
	res.Elapsed = time.Since(start)
	return res
}

// accuConfig selects the insights an ACCU-family run uses.
type accuConfig struct {
	name       string
	popularity bool // POPACCU: observed false-value popularity
	sim        bool // value similarity boost
	format     bool // format subsumption boost
	perAttr    bool // per-attribute trust
	perCat     bool // per-object-category trust (Section 5 extension)
	copies     bool // ACCUCOPY copy detection (the sharded executor's detect step)
}

// AccuPr applies Bayesian analysis with N uniformly distributed false
// values: a source's vote count is ln(N*A/(1-A)) and the value
// probabilities are normalised per item (Dong et al.).
type AccuPr struct{ identityScale }

// Name implements Method.
func (AccuPr) Name() string { return "AccuPr" }

// Needs implements Method.
func (AccuPr) Needs() BuildOptions { return BuildOptions{} }

// Run implements Method.
func (AccuPr) Run(p *Problem, opts Options) *Result {
	return accuRun(p, opts, accuConfig{name: "AccuPr"})
}

// PopAccu replaces ACCUPR's uniform-false-value assumption with the
// observed popularity of false values, which keeps popular copied errors
// from inflating their providers' trust.
type PopAccu struct{ identityScale }

// Name implements Method.
func (PopAccu) Name() string { return "PopAccu" }

// Needs implements Method.
func (PopAccu) Needs() BuildOptions { return BuildOptions{} }

// Run implements Method.
func (PopAccu) Run(p *Problem, opts Options) *Result {
	return accuRun(p, opts, accuConfig{name: "PopAccu", popularity: true})
}

// AccuSim augments ACCUPR with the value-similarity boost of TRUTHFINDER.
type AccuSim struct{ identityScale }

// Name implements Method.
func (AccuSim) Name() string { return "AccuSim" }

// Needs implements Method.
func (AccuSim) Needs() BuildOptions { return BuildOptions{NeedSimilarity: true} }

// Run implements Method.
func (AccuSim) Run(p *Problem, opts Options) *Result {
	return accuRun(p, opts, accuConfig{name: "AccuSim", sim: true})
}

// AccuFormat augments ACCUSIM with format subsumption: the provider of
// "8M" is a partial provider of 7,528,396.
type AccuFormat struct{ identityScale }

// Name implements Method.
func (AccuFormat) Name() string { return "AccuFormat" }

// Needs implements Method.
func (AccuFormat) Needs() BuildOptions {
	return BuildOptions{NeedSimilarity: true, NeedFormat: true}
}

// Run implements Method.
func (AccuFormat) Run(p *Problem, opts Options) *Result {
	return accuRun(p, opts, accuConfig{name: "AccuFormat", sim: true, format: true})
}

// AccuSimAttr is ACCUSIM with per-attribute source trust.
type AccuSimAttr struct{ identityScale }

// Name implements Method.
func (AccuSimAttr) Name() string { return "AccuSimAttr" }

// Needs implements Method.
func (AccuSimAttr) Needs() BuildOptions { return BuildOptions{NeedSimilarity: true} }

// Run implements Method.
func (AccuSimAttr) Run(p *Problem, opts Options) *Result {
	return accuRun(p, opts, accuConfig{name: "AccuSimAttr", sim: true, perAttr: true})
}

// AccuFormatAttr is ACCUFORMAT with per-attribute source trust — the
// paper's strongest method on the Stock snapshot.
type AccuFormatAttr struct{ identityScale }

// Name implements Method.
func (AccuFormatAttr) Name() string { return "AccuFormatAttr" }

// Needs implements Method.
func (AccuFormatAttr) Needs() BuildOptions {
	return BuildOptions{NeedSimilarity: true, NeedFormat: true}
}

// Run implements Method.
func (AccuFormatAttr) Run(p *Problem, opts Options) *Result {
	return accuRun(p, opts, accuConfig{name: "AccuFormatAttr", sim: true, format: true, perAttr: true})
}

// accuTrust holds global accuracies or accuracies keyed by attribute or
// object category (the key space is chosen by the config).
type accuTrust struct {
	keyed  bool
	global []float64
	byKey  [][]float64 // [source][attr or category]
}

func (t *accuTrust) of(s int32, key int32) float64 {
	if t.keyed {
		return t.byKey[s][key]
	}
	return t.global[s]
}

// accuScratch is the ACCU engine's per-run pool: the trust re-estimation
// accumulators (flattened to source-major [source*numKeys+key] for the
// keyed variants), the per-worker similarity-boost temps, and the score
// tables the posterior kernels read (the log-odds table refilled each
// round, the popularity table built once per run). accuIterate and
// accuWarm allocate it once and reuse it every round.
type accuScratch struct {
	next   []float64
	cnt    []float64
	temps  workerRows
	tables *accuTables
	pop    *popTable // nil unless cfg.popularity
}

func newAccuScratch(p *Problem, numKeys int, opts Options, cfg accuConfig) *accuScratch {
	width := len(p.SourceIDs)
	if numKeys > 0 {
		width *= numKeys
	}
	sc := &accuScratch{
		next: make([]float64, width),
		cnt:  make([]float64, width),
		// Allocated for every config (a few cache lines): the posterior
		// phase fans out by temps.workers, and only the sim configs ever
		// read the rows.
		temps:  newWorkerRows(p, opts.Parallelism),
		tables: newAccuTables(len(p.SourceIDs), numKeys, opts, cfg),
	}
	if cfg.popularity {
		sc.pop = newPopTable(p)
	}
	return sc
}

// accuRun is the shared ACCU-family engine. weights, when non-nil, scales
// each claim's vote (ACCUCOPY's independence probabilities); it is indexed
// like the problem's buckets via claimWeight.
func accuRun(p *Problem, opts Options, cfg accuConfig) *Result {
	opts = opts.withDefaults()
	start := time.Now()
	res := accuIterate(p, opts, cfg, nil)
	res.Elapsed = time.Since(start)
	return res
}

// claimWeights mirrors the problem's bucket layout: claimWeights[i][b][k]
// weighs the k-th provider of bucket b on item i.
type claimWeights [][][]float64

// accuIterate runs the Bayesian iteration; weigh (optional) recomputes the
// per-claim weights each round from the current state (used by ACCUCOPY).
func accuIterate(p *Problem, opts Options, cfg accuConfig,
	weigh func(round int, trust *accuTrust, probs [][]float64, chosen []int32) claimWeights) *Result {

	n := len(p.SourceIDs)
	numKeys, keyOf := keySetup(p, cfg)
	trust := &accuTrust{keyed: numKeys > 0}
	if trust.keyed {
		trust.byKey = make([][]float64, n)
		for s := 0; s < n; s++ {
			trust.byKey[s] = make([]float64, numKeys)
			for a := range trust.byKey[s] {
				trust.byKey[s][a] = 0.8
			}
			if cfg.perAttr && opts.InputAttrTrust != nil {
				copy(trust.byKey[s], opts.InputAttrTrust[s])
			} else if opts.InputTrust != nil {
				for a := range trust.byKey[s] {
					trust.byKey[s][a] = opts.InputTrust[s]
				}
			} else if opts.InitialTrust != nil {
				for a := range trust.byKey[s] {
					trust.byKey[s][a] = opts.InitialTrust[s]
				}
			}
		}
	} else {
		trust.global = initTrust(n, opts.startTrust(), 0.8)
	}
	trustGiven := opts.InputTrust != nil || (cfg.perAttr && opts.InputAttrTrust != nil)

	probs := newProbRows(p)
	// Seed probabilities with provider shares (the VOTE prior) so that the
	// first detection round of ACCUCOPY sees sensible uncertainty.
	for i := range p.Items {
		it := &p.Items[i]
		for b, bk := range it.Buckets {
			probs[i][b] = float64(len(bk.Sources)) / float64(it.Providers)
		}
	}
	chosen := make([]int32, len(p.Items)) // starts at the dominant bucket
	res := &Result{Method: cfg.name}
	sc := newAccuScratch(p, numKeys, opts, cfg)

	var weights claimWeights
	postPhase := accuPostPhase(p, opts, cfg, keyOf, sc, probs, chosen, nil, &weights)

	for round := 1; ; round++ {
		res.Rounds = round
		if weigh != nil {
			weights = weigh(round, trust, probs, chosen)
		}
		sc.tables.update(trust)
		parallel.ForWorker(len(p.Items), sc.temps.workers, postPhase)

		if trustGiven {
			// With sampled trust there is no estimation loop; ACCUCOPY
			// still refines its copy weights until choices stabilise.
			if weigh == nil || round >= 5 {
				res.Converged = true
				break
			}
			continue
		}

		delta := accuReestimate(p, trust, probs, keyOf, numKeys, sc)
		if delta < opts.Epsilon || round >= opts.MaxRounds {
			res.Converged = delta < opts.Epsilon
			break
		}
	}

	accuFinish(p, cfg, trust, probs, chosen, keyOf, res)
	return res
}

// accuPostPhase builds the per-item posterior phase shared by the cold
// (accuIterate) and warm (accuWarm) paths: item i reads the (stable)
// score tables and claim weights, writes only probs[i] and chosen[i],
// and fully rewrites its worker's boost temp, so the loop fans out with
// bit-identical results at any parallelism. The caller refills
// sc.tables from the current trust before each fan-out. idx maps loop
// positions to item indices (nil = identity — the cold path's full
// sweep); weights points at the caller's per-round claim weights
// variable (nil when the path never weighs claims).
func accuPostPhase(p *Problem, opts Options, cfg accuConfig,
	keyOf func(int) int32, sc *accuScratch,
	probs [][]float64, chosen []int32, idx []int, weights *claimWeights) func(worker, lo, hi int) {

	return func(worker, lo, hi int) {
		tmp := sc.temps.rows[worker]
		for k := lo; k < hi; k++ {
			i := k
			if idx != nil {
				i = idx[k]
			}
			var w [][]float64
			if weights != nil && *weights != nil {
				w = (*weights)[i]
			}
			var popLg, popCnt []float64
			if sc.pop != nil {
				popLg, popCnt = sc.pop.rows(i)
			}
			chosen[i] = accuPosterior(p, i, opts, cfg, sc.tables.row(keyOf(i)), popLg, popCnt, w, probs[i], tmp)
		}
	}
}

// keySetup resolves the trust key space of an ACCU-family config: the
// attribute table for the Attr variants, the object categories for the Cat
// extension, a single global key otherwise (numKeys 0).
func keySetup(p *Problem, cfg accuConfig) (numKeys int, keyOf func(int) int32) {
	keyOf = func(i int) int32 { return 0 }
	switch {
	case cfg.perAttr:
		numKeys = p.NumAttrs
		keyOf = func(i int) int32 { return int32(p.Items[i].Attr) }
	case cfg.perCat:
		numKeys = len(p.CatNames)
		if numKeys == 0 {
			numKeys = 1
		}
		keyOf = func(i int) int32 {
			if p.Cats == nil {
				return 0
			}
			return p.Cats[i]
		}
	}
	return numKeys, keyOf
}

// accuPosterior computes one item's value posteriors into scores and
// returns the winning bucket. It is a pure function of the item's
// buckets, the table entries of its providers (lo is the item's trust
// key's log-odds row, popLg/popCnt the popularity pair terms — nil for
// the non-popularity configs), its aux structures and the supplied claim
// weights — the invariant the incremental engine's dirty-item tracking
// relies on. The scoring pass dispatches once per item to a branch-free
// weighted/unweighted × popularity/plain variant instead of testing
// w != nil / cfg.popularity per claim. tmp is the caller's per-worker
// boost buffer (at least MaxBuckets wide) for the similarity configs;
// it is fully rewritten here.
func accuPosterior(p *Problem, i int, opts Options, cfg accuConfig,
	lo, popLg, popCnt []float64, w [][]float64, scores []float64, tmp []float64) int32 {

	it := &p.Items[i]
	if cfg.popularity {
		if w != nil {
			accuScorePopW(it, lo, popLg, popCnt, w, scores)
		} else {
			accuScorePop(it, lo, popLg, popCnt, scores)
		}
	} else {
		if w != nil {
			accuScorePlainW(it, lo, w, scores)
		} else {
			accuScorePlain(it, lo, scores)
		}
	}
	if cfg.sim {
		nb := len(it.Buckets)
		if cap(tmp) < nb {
			tmp = make([]float64, nb)
		}
		boosted := tmp[:nb]
		sim := p.Sim[i]
		sw := opts.SimWeight
		for b := 0; b < nb; b++ {
			boost := scores[b]
			// Split at the diagonal: two straight-line slice loops keep
			// the exact skip-b accumulation order without the per-entry
			// branch.
			srow := sim[b*nb : b*nb+nb]
			for b2 := 0; b2 < b; b2++ {
				boost += sw * float64(srow[b2]) * scores[b2]
			}
			for b2 := b + 1; b2 < nb; b2++ {
				boost += sw * float64(srow[b2]) * scores[b2]
			}
			boosted[b] = boost
		}
		copy(scores, boosted)
	}
	if cfg.format && p.Format != nil {
		for _, fp := range p.Format[i] {
			scores[fp.Fine] += opts.SimWeight * math.Max(scores[fp.Coarse], 0)
		}
	}
	softmaxInPlace(scores)
	return argmax32(scores)
}

// The four ACCU scoring variants. Each accumulates one bucket's
// log-score in the exact claim order of the original fused loop; the
// log-odds (and ln N prior) come from the per-round table, so the hot
// loop is a pure lookup/multiply-add. The unweighted variants drop the
// wk multiply entirely (1.0*x == x exactly in IEEE, so the result is
// unchanged bit for bit).

func accuScorePlain(it *ProblemItem, lo, scores []float64) {
	for b, bk := range it.Buckets {
		var l float64
		for _, s := range bk.Sources {
			l += lo[s]
		}
		scores[b] = l
	}
}

func accuScorePlainW(it *ProblemItem, lo []float64, w [][]float64, scores []float64) {
	for b, bk := range it.Buckets {
		var l float64
		wb := w[b]
		for k, s := range bk.Sources {
			l += wb[k] * lo[s]
		}
		scores[b] = l
	}
}

// accuScorePop adds POPACCU's popularity terms from the per-run pair
// table: non-providers of b supply false values whose popularity is
// their provider share among the remaining sources (Dong, Saha,
// Srivastava). The diagonal-split loops keep the original skip-b
// accumulation order branch-free.
func accuScorePop(it *ProblemItem, lo, popLg, popCnt, scores []float64) {
	nb := len(it.Buckets)
	for b, bk := range it.Buckets {
		var l float64
		for _, s := range bk.Sources {
			l += lo[s]
		}
		prow := popLg[b*nb : b*nb+nb]
		for b2 := 0; b2 < b; b2++ {
			l += popCnt[b2] * prow[b2]
		}
		for b2 := b + 1; b2 < nb; b2++ {
			l += popCnt[b2] * prow[b2]
		}
		scores[b] = l
	}
}

func accuScorePopW(it *ProblemItem, lo, popLg, popCnt []float64, w [][]float64, scores []float64) {
	nb := len(it.Buckets)
	for b, bk := range it.Buckets {
		var l float64
		wb := w[b]
		for k, s := range bk.Sources {
			l += wb[k] * lo[s]
		}
		prow := popLg[b*nb : b*nb+nb]
		for b2 := 0; b2 < b; b2++ {
			l += popCnt[b2] * prow[b2]
		}
		for b2 := b + 1; b2 < nb; b2++ {
			l += popCnt[b2] * prow[b2]
		}
		scores[b] = l
	}
}

// accuReestimate recomputes trust from the current posteriors (the M-step
// of the Bayesian iteration) into the scratch accumulators and returns
// the largest per-entry move. The accumulation order is the item order,
// independent of any parallelism.
func accuReestimate(p *Problem, trust *accuTrust, probs [][]float64,
	keyOf func(int) int32, numKeys int, sc *accuScratch) float64 {

	if trust.keyed {
		clear(sc.next)
		clear(sc.cnt)
		for i := range p.Items {
			accuFoldKeyed(&p.Items[i], int(keyOf(i)), numKeys, probs[i], sc.next, sc.cnt)
		}
		return accuKeyedTail(trust, numKeys, sc.next, sc.cnt)
	}
	clear(sc.next)
	clear(sc.cnt)
	for i := range p.Items {
		accuFoldGlobal(&p.Items[i], probs[i], sc.next, sc.cnt)
	}
	return accuGlobalTail(trust, sc)
}

// accuFoldKeyed folds one item's posteriors into the keyed trust
// accumulators (flattened source-major).
func accuFoldKeyed(it *ProblemItem, key, numKeys int, row, next, cnt []float64) {
	for b, bk := range it.Buckets {
		for _, s := range bk.Sources {
			next[int(s)*numKeys+key] += row[b]
			cnt[int(s)*numKeys+key]++
		}
	}
}

// accuFoldGlobal folds one item's posteriors into the global trust
// accumulators.
func accuFoldGlobal(it *ProblemItem, row, next, cnt []float64) {
	for b, bk := range it.Buckets {
		for _, s := range bk.Sources {
			next[s] += row[b]
			cnt[s]++
		}
	}
}

// accuKeyedTail turns the keyed accumulators into the next keyed trust
// in place and returns the largest per-entry move.
func accuKeyedTail(trust *accuTrust, numKeys int, next, cnt []float64) float64 {
	var delta float64
	n := len(trust.byKey)
	for s := 0; s < n; s++ {
		for a := 0; a < numKeys; a++ {
			var v float64
			if cnt[s*numKeys+a] > 0 {
				v = clampTrust(next[s*numKeys+a]/cnt[s*numKeys+a], 0.01, 0.99)
			} else {
				v = trust.byKey[s][a]
			}
			if d := math.Abs(v - trust.byKey[s][a]); d > delta {
				delta = d
			}
			trust.byKey[s][a] = v
		}
	}
	return delta
}

// accuGlobalTail finalises the global accumulators into the next trust
// vector (double-buffered against the scratch) and returns the move.
func accuGlobalTail(trust *accuTrust, sc *accuScratch) float64 {
	next, cnt := sc.next, sc.cnt
	for s := range next {
		if cnt[s] > 0 {
			next[s] = clampTrust(next[s]/cnt[s], 0.01, 0.99)
		} else {
			next[s] = trust.global[s]
		}
	}
	delta := maxDelta(trust.global, next)
	trust.global, sc.next = next, trust.global
	return delta
}

// accuFinish writes the run outputs: scalar trust (per-source mean for the
// keyed variants), attribute trust, chosen buckets and posteriors.
func accuFinish(p *Problem, cfg accuConfig, trust *accuTrust, probs [][]float64,
	chosen []int32, keyOf func(int) int32, res *Result) {

	if trust.keyed {
		n := len(trust.byKey)
		if cfg.perAttr {
			res.AttrTrust = trust.byKey
		}
		// Report the per-source mean as the scalar trust.
		res.Trust = make([]float64, n)
		claims := make([]float64, n)
		for i := range p.Items {
			accuMeanFold(&p.Items[i], keyOf(i), trust.byKey, res.Trust, claims)
		}
		for s := range res.Trust {
			if claims[s] > 0 {
				res.Trust[s] /= claims[s]
			}
		}
	} else {
		res.Trust = trust.global
	}
	res.Chosen = chosen
	res.Posteriors = probs
}

// accuMeanFold folds one item into the per-source keyed-trust mean (the
// scalar-trust report of the keyed ACCU variants).
func accuMeanFold(it *ProblemItem, key int32, byKey [][]float64, acc, claims []float64) {
	for _, bk := range it.Buckets {
		for _, s := range bk.Sources {
			acc[s] += byKey[s][key]
			claims[s]++
		}
	}
}

// tfConfItem computes one item's TRUTHFINDER confidences; nlg is the
// per-round -ln(1-min(tau, tfMaxTau)) table (tfLogTable) and tmp a
// per-worker temporary of at least len(it.Buckets) entries, fully
// rewritten here. Shared verbatim by the flat loop and the round
// protocol's executor (dist.go), like every kernel in this file. The
// similarity boost splits at the diagonal into two straight-line slice
// loops, preserving the exact skip-b accumulation order without the
// per-entry branch.
func tfConfItem(it *ProblemItem, sim []float32, nlg []float64, row, tmp []float64) {
	nb := len(it.Buckets)
	raw := tmp[:nb]
	for b, bk := range it.Buckets {
		var v float64
		for _, s := range bk.Sources {
			v += nlg[s]
		}
		raw[b] = v
	}
	for b := 0; b < nb; b++ {
		adj := raw[b]
		srow := sim[b*nb : b*nb+nb]
		for b2 := 0; b2 < b; b2++ {
			adj += tfRho * float64(srow[b2]) * raw[b2]
		}
		for b2 := b + 1; b2 < nb; b2++ {
			adj += tfRho * float64(srow[b2]) * raw[b2]
		}
		row[b] = 1 / (1 + math.Exp(-tfGamma*adj))
	}
}

// tfFold folds one item's confidences into the trust accumulators.
func tfFold(it *ProblemItem, row []float64, next, cnt []float64) {
	for b, bk := range it.Buckets {
		for _, s := range bk.Sources {
			next[s] += row[b]
			cnt[s]++
		}
	}
}

// tfTail averages and clamps the accumulated confidences in place.
func tfTail(next, cnt []float64) {
	for s := range next {
		if cnt[s] > 0 {
			next[s] = clampTrust(next[s]/cnt[s], 0.01, tfMaxTau)
		}
	}
}

// softmaxInPlace converts log-scores to probabilities.
func softmaxInPlace(l []float64) {
	m := math.Inf(-1)
	for _, x := range l {
		if x > m {
			m = x
		}
	}
	var z float64
	for i := range l {
		l[i] = math.Exp(l[i] - m)
		z += l[i]
	}
	if z > 0 {
		for i := range l {
			l[i] /= z
		}
	}
}
