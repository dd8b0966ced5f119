package fusion

import (
	"math"
	"time"

	"truthdiscovery/internal/parallel"
)

// The Web-link based methods (Table 6): HUB, AVGLOG, INVEST, POOLEDINVEST.
// They descend from authority analysis on hyperlink graphs — a value's vote
// is the trust mass of its providers, a source's trust the vote mass of its
// values — and differ in how the mass is averaged, invested and returned.
//
// Each Run allocates its vote space, double-buffered trust vector and
// per-source accumulators once, hoists the per-item vote closure out of
// the round loop, and reuses everything every round — warm rounds on the
// serial path allocate nothing.

// Hub adapts Kleinberg's hubs-and-authorities to fusion: vote(v) = sum of
// provider trust; trust(s) = sum of its values' votes; both max-normalised
// every round to keep the fixpoint bounded.
type Hub struct{ identityScale }

// Name implements Method.
func (Hub) Name() string { return "Hub" }

// Needs implements Method.
func (Hub) Needs() BuildOptions { return BuildOptions{} }

// Run implements Method.
func (Hub) Run(p *Problem, opts Options) *Result {
	opts = opts.withDefaults()
	start := time.Now()
	n := len(p.SourceIDs)
	trust := initTrust(n, opts.startTrust(), 1)
	next := make([]float64, n)
	votes := newVoteSpace(p)
	votePhase := trustMassVotes(p, &trust, votes)

	res := &Result{Method: "Hub"}
	for round := 1; ; round++ {
		res.Rounds = round
		parallel.For(len(p.Items), opts.Parallelism, votePhase)
		if opts.InputTrust != nil {
			res.Converged = true
			break
		}
		clear(next)
		for i := range p.Items {
			voteMassFold(&p.Items[i], votes.row(i), next)
		}
		normalizeMax(next)
		delta := maxDelta(trust, next)
		trust, next = next, trust
		if delta < opts.Epsilon || round >= opts.MaxRounds {
			res.Converged = delta < opts.Epsilon
			break
		}
	}
	res.Trust = trust
	res.Chosen = choose(p, votes)
	res.Elapsed = time.Since(start)
	return res
}

// AvgLog tempers HUB's bias toward prolific sources: trust is the log of
// the claim count times the average (not the sum) of the value votes.
type AvgLog struct{ identityScale }

// Name implements Method.
func (AvgLog) Name() string { return "AvgLog" }

// Needs implements Method.
func (AvgLog) Needs() BuildOptions { return BuildOptions{} }

// Run implements Method.
func (AvgLog) Run(p *Problem, opts Options) *Result {
	opts = opts.withDefaults()
	start := time.Now()
	n := len(p.SourceIDs)
	trust := initTrust(n, opts.startTrust(), 1)
	next := make([]float64, n)
	mass := make([]float64, n)
	logc := logClaimCounts(p.ClaimsPerSource) // claim counts never change across rounds
	votes := newVoteSpace(p)
	votePhase := trustMassVotes(p, &trust, votes)

	res := &Result{Method: "AvgLog"}
	for round := 1; ; round++ {
		res.Rounds = round
		parallel.For(len(p.Items), opts.Parallelism, votePhase)
		if opts.InputTrust != nil {
			res.Converged = true
			break
		}
		clear(mass)
		for i := range p.Items {
			voteMassFold(&p.Items[i], votes.row(i), mass)
		}
		avgLogTail(p.ClaimsPerSource, logc, mass, next)
		normalizeMax(next)
		delta := maxDelta(trust, next)
		trust, next = next, trust
		if delta < opts.Epsilon || round >= opts.MaxRounds {
			res.Converged = delta < opts.Epsilon
			break
		}
	}
	res.Trust = trust
	res.Chosen = choose(p, votes)
	res.Elapsed = time.Since(start)
	return res
}

// investExponent is the non-linear vote growth of INVEST/POOLEDINVEST
// (Pasternack and Roth use g = 1.2).
const investExponent = 1.2

// Invest has each source invest its trust uniformly across its claims; a
// value's vote grows as the invested sum to the power 1.2, and the vote is
// paid back to each investor in proportion to its contribution.
type Invest struct{ identityScale }

// Name implements Method.
func (Invest) Name() string { return "Invest" }

// Needs implements Method.
func (Invest) Needs() BuildOptions { return BuildOptions{} }

// Run implements Method.
func (Invest) Run(p *Problem, opts Options) *Result {
	return runInvest(p, opts, false)
}

// PooledInvest rescales each item's votes so they sum to the item's total
// investment, which removes the need for normalisation.
type PooledInvest struct{ identityScale }

// Name implements Method.
func (PooledInvest) Name() string { return "PooledInvest" }

// Needs implements Method.
func (PooledInvest) Needs() BuildOptions { return BuildOptions{} }

// Run implements Method.
func (PooledInvest) Run(p *Problem, opts Options) *Result {
	return runInvest(p, opts, true)
}

func runInvest(p *Problem, opts Options, pooled bool) *Result {
	opts = opts.withDefaults()
	start := time.Now()
	n := len(p.SourceIDs)
	trust := initTrust(n, opts.startTrust(), 1)
	next := make([]float64, n)
	shares := make([]float64, n) // per-round trust/claims table
	votes := newVoteSpace(p)
	invested := newVoteSpace(p) // per item per bucket

	// Per-item investment phase: disjoint writes to invested and votes
	// rows, bit-identical at any parallelism.
	investPhase := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			investItem(&p.Items[i], shares, votes.row(i), invested.row(i), pooled)
		}
	}

	name := "Invest"
	if pooled {
		name = "PooledInvest"
	}
	res := &Result{Method: name}
	for round := 1; ; round++ {
		res.Rounds = round
		investShares(shares, trust, p.ClaimsPerSource)
		parallel.For(len(p.Items), opts.Parallelism, investPhase)
		if opts.InputTrust != nil {
			res.Converged = true
			break
		}
		clear(next)
		for i := range p.Items {
			investFold(&p.Items[i], shares, votes.row(i), invested.row(i), next)
		}
		if !pooled {
			normalizeMax(next)
		}
		delta := maxDelta(trust, next)
		trust, next = next, trust
		if delta < opts.Epsilon || round >= opts.MaxRounds {
			res.Converged = delta < opts.Epsilon
			break
		}
	}
	res.Trust = trust
	res.Chosen = choose(p, votes)
	res.Elapsed = time.Since(start)
	return res
}

// trustMassVotes builds the shared HUB/AVGLOG vote phase — vote(i, b) =
// sum of provider trust — as a closure hoisted out of the round loop. It
// reads the caller's trust pointer so the round loop's double-buffer swap
// stays visible. Item rows are written disjointly, so the phase fans out
// bit-identically at any parallelism.
func trustMassVotes(p *Problem, trust *[]float64, votes voteSpace) func(lo, hi int) {
	return func(lo, hi int) {
		t := *trust
		for i := lo; i < hi; i++ {
			voteMassItem(&p.Items[i], t, votes.row(i))
		}
	}
}

// The per-item kernels of the Web-link family. Each is shared verbatim
// by the flat round loops above and the round protocol's executor
// (dist.go), which runs every sharded and distributed round, so the
// paths perform the exact same floating-point operations in the same
// per-item order — the root of the bit-identity contract.

// voteMassItem writes one item's votes: vote(b) = sum of provider trust.
func voteMassItem(it *ProblemItem, trust []float64, row []float64) {
	for b, bk := range it.Buckets {
		var v float64
		for _, s := range bk.Sources {
			v += trust[s]
		}
		row[b] = v
	}
}

// voteMassFold folds one item's votes back onto its providers (the
// HUB/AVGLOG trust accumulation).
func voteMassFold(it *ProblemItem, row []float64, acc []float64) {
	for b, bk := range it.Buckets {
		for _, s := range bk.Sources {
			acc[s] += row[b]
		}
	}
}

// avgLogTail turns accumulated vote mass into AVGLOG trust: log of the
// claim count times the average vote. logc is the per-run
// log(claims+1) table (logClaimCounts) — the counts are round-constant,
// so the log is hoisted out of the round loop.
func avgLogTail(cps []int, logc, mass, next []float64) {
	for s := range next {
		if c := cps[s]; c > 0 {
			next[s] = logc[s] * mass[s] / float64(c)
		} else {
			next[s] = 0
		}
	}
}

// investItem runs one item's investment phase: every provider invests
// trust/claims into its bucket, votes grow as invested^1.2, and POOLED-
// INVEST rescales the votes to the item's total investment. shares is
// the per-round trust/claims table (investShares); every source that
// appears in a bucket has at least one claim, so the table lookup is
// exactly the guarded division it replaces.
func investItem(it *ProblemItem, shares []float64, vrow, irow []float64, pooled bool) {
	var pool float64
	for b, bk := range it.Buckets {
		var inv float64
		for _, s := range bk.Sources {
			inv += shares[s]
		}
		irow[b] = inv
		vrow[b] = math.Pow(inv, investExponent)
		pool += inv
	}
	if pooled {
		var sum float64
		for b := range it.Buckets {
			sum += vrow[b]
		}
		if sum > 0 {
			for b := range it.Buckets {
				vrow[b] *= pool / sum
			}
		}
	}
}

// investFold pays one item's votes back to the investors in proportion
// to their contribution. shares is the same per-round trust/claims table
// the investment phase read; bucket membership implies a positive claim
// count, so the lookup matches the old guarded division bit for bit.
func investFold(it *ProblemItem, shares []float64, vrow, irow, next []float64) {
	for b, bk := range it.Buckets {
		if irow[b] <= 0 {
			continue
		}
		for _, s := range bk.Sources {
			share := shares[s] / irow[b]
			next[s] += vrow[b] * share
		}
	}
}

// initTrust returns the starting trust vector: the supplied input trust
// when given, otherwise the uniform default.
func initTrust(n int, input []float64, def float64) []float64 {
	t := make([]float64, n)
	if input != nil {
		copy(t, input)
		return t
	}
	for i := range t {
		t[i] = def
	}
	return t
}

// choose picks the winning bucket of every item from the flat vote space.
func choose(p *Problem, votes voteSpace) []int32 {
	chosen := make([]int32, len(p.Items))
	for i := range p.Items {
		chosen[i] = argmax32(votes.row(i))
	}
	return chosen
}
