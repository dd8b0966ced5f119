package fusion

import "math"

// The Bayesian methods (Table 6): TRUTHFINDER plus the ACCU family
// (ACCUPR, POPACCU, ACCUSIM, ACCUFORMAT, the per-attribute variants, and —
// in copy.go — ACCUCOPY). The ACCU family shares one round loop (runAccu,
// dist.go) parameterised by which insights are enabled (accuConfig),
// mirroring how the paper derives each method from ACCUPR.

// TruthFinder constants from Yin et al.: rho weights similar values' votes,
// gamma dampens the logistic, and initial trust is 0.9.
const (
	tfRho     = 0.5
	tfGamma   = 0.3
	tfInitial = 0.9
	tfMaxTau  = 0.999999
)

// accuConfig selects the insights an ACCU-family run uses.
type accuConfig struct {
	popularity bool // POPACCU: observed false-value popularity
	sim        bool // value similarity boost
	format     bool // format subsumption boost
	perAttr    bool // per-attribute trust
	perCat     bool // per-object-category trust (Section 5 extension)
	copies     bool // ACCUCOPY copy detection (the executor's detect step)
}

// accuTrust holds global accuracies or accuracies keyed by attribute or
// object category (the key space is chosen by the config).
type accuTrust struct {
	keyed  bool
	global []float64
	byKey  [][]float64 // [source][attr or category]
}

// accuScratch holds the ACCU loop's trust re-estimation accumulators
// (flattened to source-major [source*numKeys+key] for the keyed
// variants), allocated once per run and reused every round.
type accuScratch struct {
	next []float64
	cnt  []float64
}

// claimWeights mirrors the problem's bucket layout: claimWeights[i][b][k]
// weighs the k-th provider of bucket b on item i.
type claimWeights [][][]float64

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
// rewritten here. The round protocol's executor (dist.go) runs it, like
// every kernel in this file, on every path. The similarity boost splits at the diagonal into two straight-line slice
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
