package fusion

import "math"

// The IR-based methods of Galland et al. (Table 6): COSINE, 2-ESTIMATES and
// 3-ESTIMATES. A source providing value v on an item implicitly votes
// against the item's other values, so every method here processes both
// positive votes (the claimed bucket) and complement votes (the rest).
//
// Scores live in the flat vote space (one float64 per bucket, spanned by
// Problem.BucketOff), which the 2-/3-Estimates "complex normalisation"
// rescales in place through the round protocol's global rescale
// (dist.go).

// cosineDamping keeps 20% of the old trust each round ("To improve
// stability, it sets the new trustworthiness as a linear combination of the
// old trustworthiness and the newly computed one").
const cosineDamping = 0.2

func sumTrust(ss []int32, trust []float64) float64 {
	var t float64
	for _, s := range ss {
		t += trust[s]
	}
	return t
}

// The per-item kernels of the IR family. The round protocol's executor
// (dist.go) runs them on every path, so all paths perform the same
// floating-point operations in the same per-item order — the
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

// flatMinMax returns the exact min and max of xs (min/max carry no
// association sensitivity, so per-shard extrema combine exactly).
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
