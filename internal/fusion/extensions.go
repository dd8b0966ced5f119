package fusion

// The paper's Section 5 future-work directions, implemented:
//
//   - Ensemble — "Can we combine the results of different fusion models to
//     get better results?"
//   - SeedTrust — "Can we start with some seed trustworthiness better than
//     the currently employed default values? For example, the seed can come
//     from ... the data items where data are fairly consistent."
//   - AccuSimCat — "data from one source may have different quality for
//     data items of different categories; for example, a source may provide
//     precise data for UA flights but low-quality data for AA-flights."
//   - SelectSources — automatic source selection.
//
// Ensemble and AccuSimCat are methods (methods.go) outside the paper's
// evaluated roster (Methods()); ExtensionMethods() returns them. SeedTrust
// and SelectSources live here.

// SeedTrust estimates per-source trustworthiness from the items whose data
// are "fairly consistent": items whose dominant value holds at least
// minDominance of the providers are treated as pseudo-truth, and each
// source is scored by its agreement with them. Sources with no claims on
// such items receive the mean seed. The result feeds Options.InitialTrust.
func SeedTrust(p *Problem, minDominance float64) []float64 {
	right := make([]float64, len(p.SourceIDs))
	total := make([]float64, len(p.SourceIDs))
	for i := range p.Items {
		it := &p.Items[i]
		dom := float64(len(it.Buckets[0].Sources)) / float64(it.Providers)
		if dom < minDominance {
			continue
		}
		for b, bk := range it.Buckets {
			for _, s := range bk.Sources {
				total[s]++
				if b == 0 {
					right[s]++
				}
			}
		}
	}
	out := make([]float64, len(p.SourceIDs))
	var sum float64
	n := 0
	for s := range out {
		if total[s] > 0 {
			out[s] = right[s] / total[s]
			sum += out[s]
			n++
		}
	}
	mean := 0.8
	if n > 0 {
		mean = sum / float64(n)
	}
	for s := range out {
		if total[s] == 0 {
			out[s] = mean
		}
	}
	return out
}

// SelectSources greedily picks up to maxSources sources that maximise the
// given method's recall against the gold truth table — the paper's source
// selection direction ("fusing a few high-recall sources obtains the
// highest recall, while adding more sources afterwards can only hurt").
// candidates bounds the search (pass the recall-ordered prefix to keep the
// cost manageable); eval must score a source subset.
func SelectSources(candidates []int, maxSources int,
	eval func(subset []int) float64) (subset []int, recall float64) {

	remaining := append([]int(nil), candidates...)
	best := -1.0
	for len(subset) < maxSources && len(remaining) > 0 {
		pickIdx := -1
		pickScore := best
		for ci, c := range remaining {
			score := eval(append(subset, c))
			if score > pickScore {
				pickScore, pickIdx = score, ci
			}
		}
		if pickIdx < 0 {
			break // no candidate improves the current subset
		}
		subset = append(subset, remaining[pickIdx])
		remaining = append(remaining[:pickIdx], remaining[pickIdx+1:]...)
		best = pickScore
	}
	return subset, best
}
