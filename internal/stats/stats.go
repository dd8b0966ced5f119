// Package stats implements the statistical measures the paper uses to
// quantify Deep Web data quality: entropy of value distributions (Eq. 1),
// relative and absolute deviation (Eq. 2), dominance factors, standard
// deviations over time, and simple histogram/CDF helpers used to regenerate
// the paper's figures.
package stats

import (
	"math"
	"sort"
)

// Entropy computes Eq. 1: E(d) = -sum_v (|S(d,v)|/|S(d)|) log2(|S(d,v)|/|S(d)|)
// from the per-value provider counts on one data item. Counts of zero are
// ignored. A single value yields entropy 0.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var e float64
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := float64(c) / float64(total)
		e -= p * math.Log2(p)
	}
	if e < 0 {
		e = 0 // guard against -0 from rounding
	}
	return e
}

// RelativeDeviation computes Eq. 2 for numeric items: the root mean square of
// (v - v0)/v0 over the distinct values v on the item, where v0 is the
// dominant value. A dominant value of zero yields 0 to avoid dividing by
// zero (the paper's numeric attributes are bounded away from zero).
func RelativeDeviation(values []float64, dominant float64) float64 {
	if len(values) == 0 || dominant == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		r := (v - dominant) / dominant
		sum += r * r
	}
	return math.Sqrt(sum / float64(len(values)))
}

// AbsoluteDeviation computes the paper's variant of Eq. 2 for clock times:
// the root mean square of the absolute difference (in minutes) between each
// distinct value and the dominant value.
func AbsoluteDeviation(values []float64, dominant float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		d := v - dominant
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(values)))
}

// DominanceFactor returns |S(d,v0)| / |S(d)| given the provider count of the
// dominant value and the total number of providers of the item.
func DominanceFactor(dominantProviders, totalProviders int) float64 {
	if totalProviders == 0 {
		return 0
	}
	return float64(dominantProviders) / float64(totalProviders)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, matching the
// paper's accuracy-deviation measure sqrt(1/|T| sum (A(t) - mean)^2).
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Histogram counts xs into the buckets defined by the given upper bounds:
// bucket i holds values x with bounds[i-1] <= x < bounds[i] (bucket 0 is
// x < bounds[0]); a final overflow bucket holds x >= bounds[len-1]. The
// returned slice has len(bounds)+1 entries.
func Histogram(xs []float64, bounds []float64) []int {
	counts := make([]int, len(bounds)+1)
	for _, x := range xs {
		i := sort.SearchFloat64s(bounds, x)
		// SearchFloat64s returns the first index with bounds[i] >= x; shift
		// exact boundary hits into the bucket that starts at the boundary.
		if i < len(bounds) && x == bounds[i] {
			i++
		}
		counts[i]++
	}
	return counts
}

// FractionAtLeast returns, for each threshold, the fraction of xs >= t.
func FractionAtLeast(xs []float64, thresholds []float64) []float64 {
	out := make([]float64, len(thresholds))
	if len(xs) == 0 {
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, t := range thresholds {
		idx := sort.Search(len(sorted), func(j int) bool { return sorted[j] >= t })
		out[i] = float64(len(sorted)-idx) / float64(len(sorted))
	}
	return out
}
