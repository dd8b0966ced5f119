package fusion

import "time"

// The method table. The paper describes every method with one template
// and one feature matrix (Table 6), and every method runs its rounds on
// one executor (dist.go) selected by exactly those features, so a method
// is a row: the executor kind that picks its kernels and round loop, and
// for the ACCU family the insights it enables. The kernels the row
// selects live in the family files (weblink.go, ir.go, bayes.go,
// copy.go); Needs, the capability checks (DistCheck, State.Advance's
// local and warm paths) and ShardedProblem.Run all read the row.

// Method is one fusion algorithm: a row of the method table. Obtain one
// from Methods, ByName, ExtensionMethods or Ensemble. The zero Method is
// no method: its Run panics and the executor refuses it.
type Method struct {
	name string
	// kind selects the executor's kernels and round loop.
	kind distKind
	// cfg selects the insights of an ACCU-family run (kind dkAccu).
	cfg accuConfig
	// members names an Ensemble's member methods (kind dkEnsemble).
	members []string
}

// methodTable holds the paper's sixteen methods in Table 6 order (the
// first numPaper rows), then the AccuSimCat extension.
var methodTable = [...]Method{
	// Vote is the paper's baseline: the value provided by the largest
	// number of sources wins. Its precision equals the precision of
	// dominant values (Section 3.2), and it needs no iteration. An item's
	// majority value depends only on its own claims, so an advance
	// recomputes exactly the dirty items (ModeLocal).
	{name: "Vote", kind: dkVote},

	// The Web-link based methods (weblink.go) descend from authority
	// analysis on hyperlink graphs: a value's vote is the trust mass of its
	// providers, a source's trust the vote mass of its values.

	// Hub adapts Kleinberg's hubs-and-authorities to fusion: vote(v) = sum
	// of provider trust; trust(s) = sum of its values' votes; both
	// max-normalised every round to keep the fixpoint bounded.
	{name: "Hub", kind: dkHub},
	// AvgLog tempers HUB's bias toward prolific sources: trust is the log
	// of the claim count times the average (not the sum) of the value
	// votes.
	{name: "AvgLog", kind: dkAvgLog},
	// Invest has each source invest its trust uniformly across its claims;
	// a value's vote grows as the invested sum to the power 1.2, and the
	// vote is paid back to each investor in proportion to its
	// contribution.
	{name: "Invest", kind: dkInvest},
	// PooledInvest rescales each item's votes so they sum to the item's
	// total investment, which removes the need for normalisation.
	{name: "PooledInvest", kind: dkPooledInvest},

	// The IR-based methods of Galland et al. (ir.go) count a claim as a
	// vote for its value and against the item's other values.

	// Cosine computes source trust as the cosine similarity between the
	// source's +-1 claim vector and the current truth scores, weights
	// votes by trust cubed, and damps trust updates for stability. Its
	// trust scale is 2a-1 (TrustScale).
	{name: "Cosine", kind: dkCosine},
	// 2-Estimates averages positive and complement votes and applies the
	// full [0,1] linear renormalisation Galland et al. require for
	// convergence.
	{name: "2-Estimates", kind: dkTwoEst},
	// 3-Estimates extends 2-ESTIMATES with a per-value error factor
	// epsilon(v) — the likelihood that a vote on the value is wrong —
	// estimated jointly with source trust under P(s right on v) =
	// 1 - (1-theta_s)eps_v.
	{name: "3-Estimates", kind: dkThreeEst},

	// The Bayesian methods (bayes.go, copy.go).

	// TruthFinder (Yin et al.) scores a value by the accumulated
	// -ln(1 - trust) of its providers, boosts the score with similar
	// values' scores, and squashes it into a confidence via a logistic
	// with damping factor gamma.
	{name: "TruthFinder", kind: dkTF},
	// AccuPr applies Bayesian analysis with N uniformly distributed false
	// values: a source's vote count is ln(N*A/(1-A)) and the value
	// probabilities are normalised per item (Dong et al.). The rest of the
	// ACCU family derives from it by enabling insights, as the paper does.
	{name: "AccuPr", kind: dkAccu},
	// PopAccu replaces ACCUPR's uniform-false-value assumption with the
	// observed popularity of false values, which keeps popular copied
	// errors from inflating their providers' trust.
	{name: "PopAccu", kind: dkAccu, cfg: accuConfig{popularity: true}},
	// AccuSim augments ACCUPR with the value-similarity boost of
	// TRUTHFINDER.
	{name: "AccuSim", kind: dkAccu, cfg: accuConfig{sim: true}},
	// AccuFormat augments ACCUSIM with format subsumption: the provider of
	// "8M" is a partial provider of 7,528,396.
	{name: "AccuFormat", kind: dkAccu, cfg: accuConfig{sim: true, format: true}},
	// AccuSimAttr is ACCUSIM with per-attribute source trust.
	{name: "AccuSimAttr", kind: dkAccu, cfg: accuConfig{sim: true, perAttr: true}},
	// AccuFormatAttr is ACCUFORMAT with per-attribute source trust — the
	// paper's strongest method on the Stock snapshot.
	{name: "AccuFormatAttr", kind: dkAccu, cfg: accuConfig{sim: true, format: true, perAttr: true}},
	// AccuCopy augments ACCUFORMAT with copy awareness: every round it
	// runs pairwise Bayesian copy detection against the current truth
	// assignment and discounts each claim's vote by the probability that
	// the claim was made independently (Dong et al.). With KnownGroups
	// supplied (the paper's "prec w. trust" setting), detection is skipped
	// and all group members except one representative are ignored.
	//
	// The paper's headline caveat is reproduced faithfully: on numeric
	// data the detector treats values highly similar to the truth as
	// false, flags honest sources as copiers, and can hurt precision
	// (Stock), while on the Flight data it is the best method.
	// Options.CopyDetectSimilarityAware enables the Section 5 fix.
	{name: "AccuCopy", kind: dkAccu, cfg: accuConfig{sim: true, format: true, copies: true}},

	// AccuSimCat (Section 5 extension) is ACCUSIM with trust distinguished
	// per object category (the object's Group: the operating airline for
	// flights), the paper's per-category quality suggestion: "a source may
	// provide precise data for UA flights but low-quality data for
	// AA-flights."
	{name: "AccuSimCat", kind: dkAccu, cfg: accuConfig{sim: true, perCat: true}},
}

// numPaper is the number of the paper's methods, the table's first rows.
const numPaper = 16

// Methods returns the paper's method roster in Table 6 order.
func Methods() []Method { return append([]Method(nil), methodTable[:numPaper]...) }

// ExtensionMethods returns the Section 5 extension methods (not part of
// the paper's evaluated roster): Ensemble over DefaultEnsemble and
// AccuSimCat. SeedTrust and SelectSources (extensions.go) are the
// extensions that are not methods.
func ExtensionMethods() []Method { return []Method{Ensemble(), methodTable[numPaper]} }

// ByName returns the paper method with the given name.
func ByName(name string) (Method, bool) {
	for _, m := range methodTable[:numPaper] {
		if m.name == name {
			return m, true
		}
	}
	return Method{}, false
}

// DefaultEnsemble combines one strong method per category of Table 6.
var DefaultEnsemble = []string{"Hub", "Cosine", "TruthFinder", "AccuFormatAttr", "PopAccu"}

// Ensemble (Section 5 extension: "Can we combine the results of
// different fusion models to get better results?") runs the named paper
// methods and takes a majority vote over their chosen values, breaking
// ties toward the value with more providers (i.e. toward VOTE). No names
// uses DefaultEnsemble; unknown names are skipped.
func Ensemble(members ...string) Method {
	if len(members) == 0 {
		members = DefaultEnsemble
	}
	return Method{name: "Ensemble", kind: dkEnsemble, members: members}
}

// Name returns the method's paper name.
func (m Method) Name() string { return m.name }

// Needs declares the auxiliary structures the method's kernels read: the
// similarity matrices for TRUTHFINDER and the similarity-boosted ACCU
// variants, the format pairs for the format-boosted ones, and for an
// Ensemble the union of its members' needs.
func (m Method) Needs() BuildOptions {
	if m.kind != dkEnsemble {
		return BuildOptions{NeedSimilarity: m.cfg.sim || m.kind == dkTF, NeedFormat: m.cfg.format}
	}
	var needs BuildOptions
	for _, name := range m.members {
		if mm, ok := ByName(name); ok {
			mn := mm.Needs()
			needs.NeedSimilarity = needs.NeedSimilarity || mn.NeedSimilarity
			needs.NeedFormat = needs.NeedFormat || mn.NeedFormat
		}
	}
	return needs
}

// Run executes the method on a problem. Every method but Vote runs its
// round program on the executor over p wrapped as one part (onePart).
// Vote has no rounds: buckets are pre-sorted by provider count, so the
// dominant value is bucket 0 everywhere.
func (m Method) Run(p *Problem, opts Options) *Result {
	if m.kind != dkVote {
		res, err := onePart(p).Run(m, opts)
		if err != nil {
			// Only the zero Method lacks a round program, and an
			// in-process run has no remote peer to fail.
			panic(err)
		}
		return res
	}
	start := time.Now()
	chosen := make([]int32, len(p.Items))
	return &Result{
		Method:    m.name,
		Chosen:    chosen,
		Rounds:    1,
		Converged: true,
		Elapsed:   time.Since(start),
	}
}

// TrustScale converts gold-standard source accuracy into the method's
// trust scale (for sampled-trust input and deviation reporting): the
// accuracy itself, except for COSINE, where a source with accuracy a
// agrees with the truth vector on a and disputes on 1-a of its claims,
// so its exact cosine is 2a-1.
func (m Method) TrustScale(accuracy []float64) []float64 {
	out := make([]float64, len(accuracy))
	copy(out, accuracy)
	if m.kind == dkCosine {
		for i, a := range accuracy {
			out[i] = 2*a - 1
		}
	}
	return out
}

// wholeRun reports whether the method's run reads every item at once:
// AccuCopy's copy detection, AccuSimCat's category keys (numbered by
// global first appearance) and Ensemble's vote over whole member runs.
// Such a method runs neither split across workers (DistCheck) nor warm
// from its dirty items (State.Advance). The zero Method counts too.
func wholeRun(m Method) bool {
	return m.kind == 0 || m.kind == dkEnsemble || m.cfg.copies || m.cfg.perCat
}
