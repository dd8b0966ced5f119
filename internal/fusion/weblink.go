package fusion

import "math"

// The Web-link based methods (Table 6): HUB, AVGLOG, INVEST, POOLEDINVEST.
// They descend from authority analysis on hyperlink graphs — a value's vote
// is the trust mass of its providers, a source's trust the vote mass of its
// values — and differ in how the mass is averaged, invested and returned.
// Each method's round is a per-item kernel below plus a tail in the
// round protocol's vector loop (runVector, dist.go); the method table
// (methods.go) describes each method.

// investExponent is the non-linear vote growth of INVEST/POOLEDINVEST
// (Pasternack and Roth use g = 1.2).
const investExponent = 1.2

// The per-item kernels of the Web-link family. The round protocol's
// executor (dist.go) runs them on every path — Method.Run, every shard
// layout, every advance and every worker — so all paths perform the
// exact same floating-point operations in the same per-item order: the
// root of the bit-identity contract.

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
