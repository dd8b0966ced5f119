package fusion

import (
	"sort"
	"time"

	"truthdiscovery/internal/copydetect"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/parallel"
	"truthdiscovery/internal/value"
)

// AccuCopy augments ACCUFORMAT with copy awareness: every round it runs
// pairwise Bayesian copy detection against the current truth assignment and
// discounts each claim's vote by the probability that the claim was made
// independently (Dong et al.).
//
// With KnownGroups supplied (the paper's "prec w. trust" setting), detection
// is skipped and all group members except one representative are ignored.
//
// The paper's headline caveat is reproduced faithfully: on numeric data the
// detector treats values highly similar to the truth as false, flags honest
// sources as copiers, and can hurt precision (Stock), while on the Flight
// data it is the best method. Options.CopyDetectSimilarityAware enables the
// Section 5 fix.
type AccuCopy struct{ identityScale }

// Name implements Method.
func (AccuCopy) Name() string { return "AccuCopy" }

// Needs implements Method.
func (AccuCopy) Needs() BuildOptions {
	return BuildOptions{NeedSimilarity: true, NeedFormat: true}
}

// copyVoteRate is the discount applied per detected copier ordering (the
// c parameter weighting dependence probabilities in vote counts).
const copyVoteRate = 0.8

// Run implements Method.
func (AccuCopy) Run(p *Problem, opts Options) *Result {
	opts = opts.withDefaults()
	start := time.Now()

	if opts.KnownGroups != nil {
		res := runWithKnownGroups(p, opts)
		res.Elapsed = time.Since(start)
		return res
	}

	// Detection is refreshed for the first several rounds and then frozen,
	// so the joint iteration of copy probabilities, value probabilities and
	// accuracies can settle instead of oscillating on borderline items.
	const freezeAfter = 8
	var frozen claimWeights
	cfg := accuConfig{name: "AccuCopy", sim: true, format: true}
	res := accuIterate(p, opts, cfg, func(round int, trust *accuTrust, probs [][]float64, chosen []int32) claimWeights {
		if round > freezeAfter && frozen != nil {
			return frozen
		}
		acc := make([]float64, len(p.SourceIDs))
		for s := range acc {
			if trust.global != nil {
				acc[s] = trust.global[s]
			} else {
				acc[s] = 0.8
			}
		}
		dep := detectOnProblem(p, chosen, probs, acc, opts)
		frozen = independenceWeights(p, acc, dep, opts.Parallelism)
		return frozen
	})
	res.Elapsed = time.Since(start)
	return res
}

// detectOnProblem converts the problem plus the current truth assignment
// into copy-detection observations and runs the detector. probs (optional)
// supplies the current per-bucket truth probabilities, used to weight
// shared-false evidence by how confidently false the shared value is.
func detectOnProblem(p *Problem, chosen []int32, probs [][]float64, acc []float64, opts Options) [][]float64 {
	obs := make([]copydetect.Observation, len(p.Items))
	// Each item's observation is assembled independently (disjoint obs[i]
	// writes), so the loop fans out bit-identically at any parallelism.
	parallel.For(len(p.Items), opts.Parallelism, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var prow []float64
			if probs != nil {
				prow = probs[i]
			}
			buildObservation(&p.Items[i], chosen[i], prow, opts, &obs[i])
		}
	})
	return copydetect.Detect(len(p.SourceIDs), obs, acc, copydetect.Options{
		NFalse:         opts.NFalse,
		UniformFalse:   opts.CopyDetectPaper2009,
		Parallelism:    opts.Parallelism,
		CountChunkSize: opts.CopyDetectChunkSize,
	})
}

// buildObservation converts one item's buckets plus the current truth
// assignment into one copy-detection observation. chosenB is the item's
// winning bucket; prow (optional) its current per-bucket truth
// probabilities. A pure per-item function, shared by the flat detector
// path and the round protocol's copy-detection step (dist.go).
func buildObservation(it *ProblemItem, chosenB int32, prow []float64, opts Options, out *copydetect.Observation) {
	o := copydetect.Observation{
		Sources:   make([]int32, 0, it.Providers),
		Buckets:   make([]int32, 0, it.Providers),
		Truthy:    make([]bool, 0, it.Providers),
		Pop:       make([]float64, 0, it.Providers),
		Contested: make([]bool, 0, it.Providers),
	}
	if prow != nil {
		o.FalseW = make([]float64, 0, it.Providers)
	}
	truthRep := it.Buckets[chosenB].Rep
	chosenSupport := len(it.Buckets[chosenB].Sources)
	for b, bk := range it.Buckets {
		truthy := int32(b) == chosenB
		if !truthy && opts.CopyDetectSimilarityAware {
			// Section 5 fix: values within a few tolerance bands of the
			// chosen truth count as true for detection purposes.
			truthy = value.Equal(bk.Rep, truthRep, 3*it.Tol)
		}
		// A value whose support rivals the winner's is contested — it
		// may well be the truth (fusion flips such items between
		// rounds), so sharing it yields no shared-false evidence.
		// Without this, every pair of accurate sources gets flagged on
		// the items where the dominant value is wrong. The plain 2009
		// detector has no such notion.
		contested := !truthy && 2*len(bk.Sources) >= chosenSupport &&
			!opts.CopyDetectPaper2009
		pop := float64(len(bk.Sources)) / float64(it.Providers)
		for _, s := range bk.Sources {
			o.Sources = append(o.Sources, s)
			o.Buckets = append(o.Buckets, int32(b))
			o.Truthy = append(o.Truthy, truthy)
			o.Pop = append(o.Pop, pop)
			o.Contested = append(o.Contested, contested)
			if prow != nil {
				o.FalseW = append(o.FalseW, 1-prow[b])
			}
		}
	}
	*out = o
}

// independenceWeights orders each bucket's providers by descending accuracy
// and weighs provider k by prod_{j<k} (1 - c*dep(k, j)): the probability it
// provided the value independently of the higher-trust providers. Items are
// weighted independently (disjoint w[i] writes), so the loop fans out
// bit-identically at any parallelism.
func independenceWeights(p *Problem, acc []float64, dep [][]float64, parallelism int) claimWeights {
	w := make(claimWeights, len(p.Items))
	parallel.For(len(p.Items), parallelism, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w[i] = independenceWeightsItem(&p.Items[i], acc, dep)
		}
	})
	return w
}

// independenceWeightsItem computes one item's per-claim independence
// weights (a pure per-item function).
func independenceWeightsItem(it *ProblemItem, acc []float64, dep [][]float64) [][]float64 {
	wi := make([][]float64, len(it.Buckets))
	for b, bk := range it.Buckets {
		order := make([]int, len(bk.Sources))
		for k := range order {
			order[k] = k
		}
		sort.SliceStable(order, func(x, y int) bool {
			return acc[bk.Sources[order[x]]] > acc[bk.Sources[order[y]]]
		})
		weights := make([]float64, len(bk.Sources))
		for rank, k := range order {
			wt := 1.0
			for rank2 := 0; rank2 < rank; rank2++ {
				j := order[rank2]
				wt *= 1 - copyVoteRate*dep[bk.Sources[k]][bk.Sources[j]]
			}
			weights[k] = wt
		}
		wi[b] = weights
	}
	return wi
}

// runWithKnownGroups ignores every known copier (keeping each group's first
// member) and runs the ACCUFORMAT engine on the filtered problem.
func runWithKnownGroups(p *Problem, opts Options) *Result {
	ignore := make([]bool, len(p.SourceIDs))
	indexOf := make(map[model.SourceID]int, len(p.SourceIDs))
	for i, s := range p.SourceIDs {
		indexOf[s] = i
	}
	for _, grp := range opts.KnownGroups {
		for gi, s := range grp {
			if gi == 0 {
				continue
			}
			if idx, ok := indexOf[s]; ok {
				ignore[idx] = true
			}
		}
	}
	filtered := filterProblem(p, ignore)
	cfg := accuConfig{name: "AccuCopy", sim: true, format: true}
	res := accuIterate(filtered, opts, cfg, nil)

	// Map choices back to the unfiltered bucket indexing.
	chosen := make([]int32, len(p.Items))
	fi := 0
	for i := range p.Items {
		chosen[i] = 0
		if fi < len(filtered.Items) && filtered.Items[fi].Item == p.Items[i].Item {
			rep := filtered.Items[fi].Buckets[res.Chosen[fi]].Rep
			for b, bk := range p.Items[i].Buckets {
				if bk.Rep == rep {
					chosen[i] = int32(b)
					break
				}
			}
			fi++
		}
	}
	res.Chosen = chosen
	return res
}

// filterProblem removes all claims of the ignored sources, dropping items
// and buckets that become empty and re-ranking each item's buckets by kept
// providers (stable). Aux structures are rebuilt, and the filtered problem
// is laid out in arenas like Build's.
func filterProblem(p *Problem, ignore []bool) *Problem {
	out := &Problem{
		SourceIDs:       p.SourceIDs,
		NumAttrs:        p.NumAttrs,
		ClaimsPerSource: make([]int, len(p.SourceIDs)),
	}
	nSrc := 0
	for s, c := range p.ClaimsPerSource {
		if !ignore[s] {
			nSrc += c
		}
	}
	lay := newBucketArena(nSrc, p.NumBuckets())
	kept := make([]int, p.maxBuckets)
	order := make([]int, 0, p.maxBuckets)
	for i := range p.Items {
		it := &p.Items[i]
		order = order[:0]
		for b, bk := range it.Buckets {
			kept[b] = 0
			for _, s := range bk.Sources {
				if !ignore[s] {
					kept[b]++
				}
			}
			if kept[b] > 0 {
				order = append(order, b)
			}
		}
		if len(order) == 0 {
			continue
		}
		// Rank before laying, so the source views follow bucket order.
		sort.SliceStable(order, func(x, y int) bool { return kept[order[x]] > kept[order[y]] })
		lo, first := len(lay.stage), len(lay.srcs)
		for _, b := range order {
			for _, s := range it.Buckets[b].Sources {
				if !ignore[s] {
					lay.srcs = append(lay.srcs, s)
					out.ClaimsPerSource[s]++
				}
			}
			lay.push(it.Buckets[b].Rep)
		}
		providers := len(lay.srcs) - first
		out.Items = append(out.Items, ProblemItem{
			Item: it.Item, Attr: it.Attr, Tol: it.Tol,
			Buckets: lay.stage[lo:len(lay.stage):len(lay.stage)], Providers: providers,
		})
	}
	laid := make([]int, len(out.Items))
	for i := range laid {
		laid[i] = i
	}
	lay.finish(out.Items, laid)
	opts := BuildOptions{NeedSimilarity: p.Sim != nil, NeedFormat: p.Format != nil, Parallelism: 1}
	if opts.NeedSimilarity {
		out.Sim = make([][]float32, len(out.Items))
	}
	if opts.NeedFormat {
		out.Format = make([][]FormatPair, len(out.Items))
	}
	layAux(out, laid, laid, opts)
	indexBuckets(out)
	return out
}

// DebugDetect exposes the detection step for diagnostics and tests.
func DebugDetect(p *Problem, chosen []int32, acc []float64, opts Options) [][]float64 {
	probs := newProbRows(p)
	for i := range p.Items {
		it := &p.Items[i]
		for b, bk := range it.Buckets {
			probs[i][b] = float64(len(bk.Sources)) / float64(it.Providers)
		}
	}
	return detectOnProblem(p, chosen, probs, acc, opts.withDefaults())
}
