package fusion

// This file implements the future-work directions of the paper's Section 5
// as working methods:
//
//   - Ensemble — "Can we combine the results of different fusion models to
//     get better results?"
//   - SeedTrust — "Can we start with some seed trustworthiness better than
//     the currently employed default values? For example, the seed can come
//     from ... the data items where data are fairly consistent."
//   - AccuSimCat — "data from one source may have different quality for
//     data items of different categories; for example, a source may provide
//     precise data for UA flights but low-quality data for AA-flights."
//
// They are not part of the paper's evaluated roster (Methods()); use
// ExtensionMethods() or construct them directly.

// Ensemble runs several member methods and takes a majority vote over
// their chosen values, breaking ties toward the value with more providers
// (i.e. toward VOTE).
type Ensemble struct {
	identityScale
	// Members are the method names to combine. Empty uses DefaultEnsemble.
	Members []string
}

// DefaultEnsemble combines one strong method per category of Table 6.
var DefaultEnsemble = []string{"Hub", "Cosine", "TruthFinder", "AccuFormatAttr", "PopAccu"}

// Name implements Method.
func (e Ensemble) Name() string { return "Ensemble" }

// Needs implements Method: the union of all members' needs.
func (e Ensemble) Needs() BuildOptions {
	needs := BuildOptions{}
	for _, name := range e.members() {
		if m, ok := ByName(name); ok {
			mn := m.Needs()
			needs.NeedSimilarity = needs.NeedSimilarity || mn.NeedSimilarity
			needs.NeedFormat = needs.NeedFormat || mn.NeedFormat
		}
	}
	return needs
}

func (e Ensemble) members() []string {
	if len(e.Members) > 0 {
		return e.Members
	}
	return DefaultEnsemble
}

// Run implements Method: the members run on the round executor, and the
// per-item majority vote is ensembleSharded's.
func (e Ensemble) Run(p *Problem, opts Options) *Result { return runOnePart(p, e, opts) }

// AccuSimCat is ACCUSIM with trust distinguished per object category (the
// object's Group: the operating airline for flights), the paper's
// per-category quality suggestion.
type AccuSimCat struct{ identityScale }

// Name implements Method.
func (AccuSimCat) Name() string { return "AccuSimCat" }

// Needs implements Method.
func (AccuSimCat) Needs() BuildOptions { return BuildOptions{NeedSimilarity: true} }

// Run implements Method.
func (AccuSimCat) Run(p *Problem, opts Options) *Result { return runOnePart(p, AccuSimCat{}, opts) }

// ExtensionMethods returns the Section 5 extension methods (not part of the
// paper's evaluated roster).
func ExtensionMethods() []Method {
	return []Method{Ensemble{}, AccuSimCat{}}
}

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
