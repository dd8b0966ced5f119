package fusion

import (
	"math"
	"time"

	"truthdiscovery/internal/parallel"
)

// The IR-based methods of Galland et al. (Table 6): COSINE, 2-ESTIMATES and
// 3-ESTIMATES. A source providing value v on an item implicitly votes
// against the item's other values, so every method here processes both
// positive votes (the claimed bucket) and complement votes (the rest).
//
// Scores live in the flat vote space (one float64 per bucket, spanned by
// Problem.BucketOff), which the 2-/3-Estimates "complex normalisation"
// rescales in place — the per-round flat/jagged copy round-trips of the
// old layout are gone. All per-round buffers are allocated once in Run.

// Cosine computes source trust as the cosine similarity between the
// source's +-1 claim vector and the current truth scores, weights votes by
// trust cubed, and damps trust updates for stability.
type Cosine struct{}

// Name implements Method.
func (Cosine) Name() string { return "Cosine" }

// Needs implements Method.
func (Cosine) Needs() BuildOptions { return BuildOptions{} }

// TrustScale implements Method: a source with accuracy a agrees with the
// truth vector on a and disputes on 1-a of its claims, so its exact cosine
// is 2a-1.
func (Cosine) TrustScale(accuracy []float64) []float64 {
	out := make([]float64, len(accuracy))
	for i, a := range accuracy {
		out[i] = 2*a - 1
	}
	return out
}

// cosineDamping keeps 20% of the old trust each round ("To improve
// stability, it sets the new trustworthiness as a linear combination of the
// old trustworthiness and the newly computed one").
const cosineDamping = 0.2

// Run implements Method.
func (Cosine) Run(p *Problem, opts Options) *Result {
	opts = opts.withDefaults()
	start := time.Now()
	n := len(p.SourceIDs)
	trust := initTrust(n, opts.startTrust(), 0.5)
	next := make([]float64, n)
	num := make([]float64, n)
	den := make([]float64, n)  // score-norm contribution per source
	cnt := make([]float64, n)  // claim-vector norm^2 per source
	cube := make([]float64, n) // per-round trust^3 table
	scores := newVoteSpace(p)
	temps := newWorkerRows(p, opts.Parallelism)

	// Truth scores in [-1, 1]: cubic positive mass minus cubic negative
	// mass over the item's total cubic mass. Disjoint row writes and a
	// fully rewritten per-worker cubic-mass temp, so the loop fans out
	// bit-identically at any parallelism.
	scorePhase := func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			cosineScoreItem(&p.Items[i], cube, scores.row(i), temps.rows[worker])
		}
	}

	res := &Result{Method: "Cosine"}
	for round := 1; ; round++ {
		res.Rounds = round
		cosineCubeTable(cube, trust)
		parallel.ForWorker(len(p.Items), temps.workers, scorePhase)
		if opts.InputTrust != nil {
			res.Converged = true
			break
		}
		// Cosine similarity between each source's claim vector (+1 claimed,
		// -1 other observed values) and the score vector.
		clear(num)
		clear(den)
		clear(cnt)
		for i := range p.Items {
			cosineFold(&p.Items[i], scores.row(i), num, den, cnt)
		}
		cosineTail(trust, num, den, cnt, next)
		delta := maxDelta(trust, next)
		trust, next = next, trust
		if delta < opts.Epsilon || round >= opts.MaxRounds {
			res.Converged = delta < opts.Epsilon
			break
		}
	}
	res.Trust = trust
	res.Chosen = choose(p, scores)
	res.Elapsed = time.Since(start)
	return res
}

// TwoEstimates averages positive and complement votes and applies the full
// [0,1] linear renormalisation Galland et al. require for convergence.
type TwoEstimates struct{ identityScale }

// Name implements Method.
func (TwoEstimates) Name() string { return "2-Estimates" }

// Needs implements Method.
func (TwoEstimates) Needs() BuildOptions { return BuildOptions{} }

// Run implements Method.
func (TwoEstimates) Run(p *Problem, opts Options) *Result {
	opts = opts.withDefaults()
	start := time.Now()
	n := len(p.SourceIDs)
	trust := initTrust(n, opts.startTrust(), 0.8)
	next := make([]float64, n)
	cnt := make([]float64, n)
	scores := newVoteSpace(p)

	// Per-item vote phase: item i writes only its own span of the flat
	// score space, so the loop fans out bit-identically.
	votePhase := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			twoEstVoteItem(&p.Items[i], trust, scores.row(i))
		}
	}

	res := &Result{Method: "2-Estimates"}
	for round := 1; ; round++ {
		res.Rounds = round
		parallel.For(len(p.Items), opts.Parallelism, votePhase)
		rescaleFlat(scores.flat, opts.Parallelism)
		if opts.InputTrust != nil {
			res.Converged = true
			break
		}
		clear(next)
		clear(cnt)
		for i := range p.Items {
			twoEstFold(&p.Items[i], scores.row(i), next, cnt)
		}
		divideBy(next, cnt)
		rescale01(next)
		delta := maxDelta(trust, next)
		trust, next = next, trust
		if delta < opts.Epsilon || round >= opts.MaxRounds {
			res.Converged = delta < opts.Epsilon
			break
		}
	}
	res.Trust = trust
	res.Chosen = choose(p, scores)
	res.Elapsed = time.Since(start)
	return res
}

// ThreeEstimates extends 2-ESTIMATES with a per-value error factor
// epsilon(v) — the likelihood that a vote on the value is wrong — estimated
// jointly with source trust under P(s right on v) = 1 - (1-theta_s)eps_v.
type ThreeEstimates struct{ identityScale }

// Name implements Method.
func (ThreeEstimates) Name() string { return "3-Estimates" }

// Needs implements Method.
func (ThreeEstimates) Needs() BuildOptions { return BuildOptions{} }

// Run implements Method.
func (ThreeEstimates) Run(p *Problem, opts Options) *Result {
	opts = opts.withDefaults()
	start := time.Now()
	n := len(p.SourceIDs)
	trust := initTrust(n, opts.startTrust(), 0.8)
	next := make([]float64, n)
	cnt := make([]float64, n)
	scores := newVoteSpace(p)
	eps := newVoteSpace(p) // per-value error factor
	for i := range eps.flat {
		eps.flat[i] = 0.4
	}

	// sigma(v) = avg_s [ claimed: 1-(1-theta)eps ; other: (1-theta)eps ].
	// Item i writes only its own flat span, so the loop fans out
	// bit-identically.
	sigmaPhase := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			threeEstSigmaItem(&p.Items[i], trust, scores.row(i), eps.row(i))
		}
	}

	// eps(v) = avg_s [ claimed: (1-sigma)/(1-theta) ; other: sigma/(1-theta) ].
	epsPhase := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			threeEstEpsItem(&p.Items[i], trust, scores.row(i), eps.row(i))
		}
	}

	res := &Result{Method: "3-Estimates"}
	for round := 1; ; round++ {
		res.Rounds = round
		parallel.For(len(p.Items), opts.Parallelism, sigmaPhase)
		rescaleFlat(scores.flat, opts.Parallelism)

		parallel.For(len(p.Items), opts.Parallelism, epsPhase)
		rescaleFlat(eps.flat, opts.Parallelism)

		if opts.InputTrust != nil {
			res.Converged = true
			break
		}
		// theta(s) = avg_v [ claimed: 1-(1-sigma)/eps ; other: 1-sigma/eps ].
		clear(next)
		clear(cnt)
		for i := range p.Items {
			threeEstFold(&p.Items[i], scores.row(i), eps.row(i), next, cnt)
		}
		divideBy(next, cnt)
		rescale01(next)
		delta := maxDelta(trust, next)
		trust, next = next, trust
		if delta < opts.Epsilon || round >= opts.MaxRounds {
			res.Converged = delta < opts.Epsilon
			break
		}
	}
	res.Trust = trust
	res.Chosen = choose(p, scores)
	res.Elapsed = time.Since(start)
	return res
}

// rescaleFlat is rescale01 with the min/max scan and the scaling loop
// fanned out. Min/max is exact under any chunking and the scaling is
// element-wise, so the result is bit-identical to the serial rescale at
// any parallelism.
func rescaleFlat(xs []float64, parallelism int) {
	n := len(xs)
	w := parallel.Workers(parallelism)
	if w > n {
		w = n
	}
	if w <= 1 {
		rescale01(xs)
		return
	}
	lows := make([]float64, w)
	his := make([]float64, w)
	parallel.For(w, w, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			l, h := math.Inf(1), math.Inf(-1)
			for _, x := range xs[c*n/w : (c+1)*n/w] {
				if x < l {
					l = x
				}
				if x > h {
					h = x
				}
			}
			lows[c], his[c] = l, h
		}
	})
	lo, hi := math.Inf(1), math.Inf(-1)
	for c := 0; c < w; c++ {
		if lows[c] < lo {
			lo = lows[c]
		}
		if his[c] > hi {
			hi = his[c]
		}
	}
	if hi <= lo {
		return
	}
	// Batched over ranges via rescaleSpan — the same straight-line slice
	// loop the sharded and distributed rescales use.
	parallel.For(n, parallelism, func(a, b int) {
		rescaleSpan(xs[a:b], lo, hi)
	})
}

func sumTrust(ss []int32, trust []float64) float64 {
	var t float64
	for _, s := range ss {
		t += trust[s]
	}
	return t
}

// The per-item kernels of the IR family. Each is shared verbatim by the
// flat round loops above and the round protocol's executor (dist.go),
// which runs every sharded and distributed round, so the paths perform
// the same floating-point operations in the same per-item order — the
// bit-identity contract.

// cosineScoreItem computes one item's truth scores in [-1, 1]; cube is
// the per-round trust^3 table (cosineCubeTable) and tmp a per-worker
// temporary of at least len(it.Buckets) entries, fully rewritten here.
func cosineScoreItem(it *ProblemItem, cube []float64, row, tmp []float64) {
	cub := tmp[:len(it.Buckets)]
	clear(cub)
	var total float64
	for b, bk := range it.Buckets {
		for _, s := range bk.Sources {
			w := cube[s]
			cub[b] += w
			total += math.Abs(w)
		}
	}
	var cubSum float64 // summed once per item, not once per bucket
	for _, c := range cub {
		cubSum += c
	}
	for b := range it.Buckets {
		if total > 0 {
			row[b] = (cub[b] - (cubSum - cub[b])) / total
		} else {
			row[b] = 0
		}
	}
}

// cosineFold folds one item into the per-source cosine accumulators:
// numerator contributions, score-norm and claim-vector-norm shares.
func cosineFold(it *ProblemItem, row []float64, num, den, cnt []float64) {
	var sqsum float64
	for b := range it.Buckets {
		sqsum += row[b] * row[b]
	}
	var all float64
	for b := range it.Buckets {
		all += row[b]
	}
	for b, bk := range it.Buckets {
		// +score for the claimed value, -score for every other.
		contrib := row[b] - (all - row[b])
		for _, s := range bk.Sources {
			num[s] += contrib
			den[s] += sqsum
			cnt[s] += float64(len(it.Buckets))
		}
	}
}

// cosineTail turns the accumulators into the next damped trust vector.
func cosineTail(trust, num, den, cnt, next []float64) {
	for s := range next {
		d := math.Sqrt(den[s]) * math.Sqrt(cnt[s])
		var c float64
		if d > 0 {
			c = num[s] / d
		}
		next[s] = cosineDamping*trust[s] + (1-cosineDamping)*clampTrust(c, -1, 1)
	}
}

// twoEstVoteItem computes one item's 2-ESTIMATES votes (positive plus
// complement, averaged over the item's providers).
func twoEstVoteItem(it *ProblemItem, trust []float64, row []float64) {
	// trustSum over all providers of the item.
	var trustAll float64
	for _, bk := range it.Buckets {
		for _, s := range bk.Sources {
			trustAll += trust[s]
		}
	}
	for b, bk := range it.Buckets {
		var pos float64
		for _, s := range bk.Sources {
			pos += trust[s]
		}
		neg := float64(it.Providers-len(bk.Sources)) - (trustAll - pos)
		row[b] = (pos + neg) / float64(it.Providers)
	}
}

// twoEstFold folds one item into the 2-ESTIMATES trust accumulators.
func twoEstFold(it *ProblemItem, row []float64, next, cnt []float64) {
	var all float64
	for b := range it.Buckets {
		all += row[b]
	}
	for b, bk := range it.Buckets {
		others := all - row[b]
		complement := float64(len(it.Buckets)-1) - others
		for _, s := range bk.Sources {
			next[s] += row[b] + complement
			cnt[s] += float64(len(it.Buckets))
		}
	}
}

// threeEstSigmaItem computes one item's sigma(v) row from the current
// trust and per-value error factors.
func threeEstSigmaItem(it *ProblemItem, trust []float64, row, erow []float64) {
	var trustAll float64
	for _, bk := range it.Buckets {
		for _, s := range bk.Sources {
			trustAll += trust[s]
		}
	}
	for b, bk := range it.Buckets {
		var pos float64
		for _, s := range bk.Sources {
			pos += 1 - (1-trust[s])*erow[b]
		}
		negMass := (float64(it.Providers-len(bk.Sources)) - (trustAll - sumTrust(bk.Sources, trust))) * erow[b]
		row[b] = (pos + negMass) / float64(it.Providers)
	}
}

// threeEstEpsItem re-estimates one item's per-value error factors.
func threeEstEpsItem(it *ProblemItem, trust []float64, row, erow []float64) {
	for b, bk := range it.Buckets {
		var e, cnt float64
		for _, s := range bk.Sources {
			e += (1 - row[b]) / math.Max(1e-9, 1-trust[s])
			cnt++
		}
		for b2, bk2 := range it.Buckets {
			if b2 == b {
				continue
			}
			for _, s := range bk2.Sources {
				e += row[b] / math.Max(1e-9, 1-trust[s])
				cnt++
			}
		}
		if cnt > 0 {
			erow[b] = clampTrust(e/cnt, 0, 1)
		}
	}
}

// threeEstFold folds one item into the 3-ESTIMATES trust accumulators.
func threeEstFold(it *ProblemItem, row, erow []float64, next, cnt []float64) {
	for b, bk := range it.Buckets {
		for _, s := range bk.Sources {
			next[s] += clampTrust(1-(1-row[b])/math.Max(1e-9, erow[b]), 0, 1)
			cnt[s]++
		}
		for b2 := range it.Buckets {
			if b2 == b {
				continue
			}
			for _, s := range bk.Sources {
				next[s] += clampTrust(1-row[b2]/math.Max(1e-9, erow[b2]), 0, 1)
				cnt[s]++
			}
		}
	}
}

// divideBy divides each accumulated entry by its count where nonzero
// (the shared "average the votes" tail).
func divideBy(next, cnt []float64) {
	for s := range next {
		if cnt[s] > 0 {
			next[s] /= cnt[s]
		}
	}
}

// flatMinMax returns the exact min and max of xs (chunk-free serial
// scan; min/max carry no association sensitivity, so this matches
// rescaleFlat's chunked scan bit for bit).
func flatMinMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// rescaleSpan linearly rescales xs with the supplied global bounds (the
// element-wise half of rescale01, shared by the round protocol's rescale).
func rescaleSpan(xs []float64, lo, hi float64) {
	if hi <= lo {
		return
	}
	for i := range xs {
		xs[i] = (xs[i] - lo) / (hi - lo)
	}
}
