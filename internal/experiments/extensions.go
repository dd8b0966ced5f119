package experiments

import (
	"fmt"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/report"
)

// The experiments in this file evaluate the paper's Section 5 future-work
// directions, implemented in internal/fusion/extensions.go.

// EnsembleExperiment answers "Can we combine the results of different
// fusion models to get better results?" by comparing the ensemble with its
// members and the per-domain best single method.
func EnsembleExperiment(e *Env) *report.Report {
	r := &report.Report{ID: "ensemble", Title: "Combining fusion models (Section 5)"}
	for _, d := range e.Domains() {
		p := d.Problem()
		t := r.NewTable(d.Name, "Method", "Precision")
		for _, name := range fusion.DefaultEnsemble {
			m, _ := fusion.ByName(name)
			res := m.Run(p, d.FusionOptions(name, false))
			ev := fusion.Evaluate(d.DS, p, res, d.Gold)
			t.AddRow("member: "+name, report.F3(ev.Precision))
		}
		ens := fusion.Ensemble().Run(p, d.FusionOpts(fusion.Options{}))
		ev := fusion.Evaluate(d.DS, p, ens, d.Gold)
		t.AddRow("Ensemble (majority of members)", report.F3(ev.Precision))
	}
	r.Note("The paper asks whether combining models helps since none dominates. The naive")
	r.Note("majority lands mid-pack: it hedges against each domain's failing members but is")
	r.Note("dragged below the best member by the weak ones — the question stays open.")
	return r
}

// SeedTrustExperiment answers "Can we start with some seed trustworthiness
// better than the currently employed default values?" — seeds derived from
// the most consistent data items versus the uniform default.
func SeedTrustExperiment(e *Env) *report.Report {
	r := &report.Report{ID: "seed-trust", Title: "Seeding trust from consistent items (Section 5)"}
	for _, d := range e.Domains() {
		p := d.Problem()
		seed := fusion.SeedTrust(p, 0.75)
		t := r.NewTable(d.Name, "Method", "Default init", "Seeded init",
			"Default (1 round)", "Seeded (1 round)", "Sampled trust")
		for _, name := range []string{"AccuPr", "TruthFinder", "AccuFormatAttr"} {
			m, _ := fusion.ByName(name)
			def := fusion.Evaluate(d.DS, p, m.Run(p, d.FusionOpts(fusion.Options{})), d.Gold)
			seeded := fusion.Evaluate(d.DS, p, m.Run(p, d.FusionOpts(fusion.Options{InitialTrust: seed})), d.Gold)
			def1 := fusion.Evaluate(d.DS, p, m.Run(p, d.FusionOpts(fusion.Options{MaxRounds: 1})), d.Gold)
			seeded1 := fusion.Evaluate(d.DS, p,
				m.Run(p, d.FusionOpts(fusion.Options{InitialTrust: seed, MaxRounds: 1})), d.Gold)
			sampled := fusion.Evaluate(d.DS, p, m.Run(p, d.FusionOptions(name, true)), d.Gold)
			t.AddRow(name, report.F3(def.Precision), report.F3(seeded.Precision),
				report.F3(def1.Precision), report.F3(seeded1.Precision),
				report.F3(sampled.Precision))
		}
	}
	r.Note("At convergence the iteration forgets its starting point (seeded == default), and even")
	r.Note("after one round the consistency-derived seed is no better than the uniform default:")
	r.Note("it inherits the bias of dominant values on exactly the items fusion gets wrong. Only")
	r.Note("sampled (gold-derived) trust lifts the ceiling — supporting the paper's observation")
	r.Note("that knowing precise trustworthiness would fix nearly half the residual mistakes.")
	return r
}

// CategoryTrustExperiment evaluates per-category trust ("a source may
// provide precise data for UA flights but low-quality data for AA-flights")
// on the Flight domain, against global and per-attribute trust.
func CategoryTrustExperiment(e *Env) *report.Report {
	r := &report.Report{ID: "category-trust", Title: "Per-category source trust (Section 5)"}
	d := e.Flight()
	p := d.Problem()
	t := r.NewTable(fmt.Sprintf("%s (categories: airlines)", d.Name), "Method", "Precision")
	for _, m := range []fusion.Method{
		mustMethod("AccuSim"), mustMethod("AccuSimCat"), mustMethod("AccuSimAttr"),
	} {
		res := m.Run(p, d.FusionOpts(fusion.Options{}))
		ev := fusion.Evaluate(d.DS, p, res, d.Gold)
		t.AddRow(m.Name(), report.F3(ev.Precision))
	}
	r.Note("The simulated roster has no strong per-airline quality splits, so per-category trust")
	r.Note("should roughly match global trust here; the unit tests exercise the split-personality case.")
	return r
}

// mustMethod resolves a paper or extension method by name.
func mustMethod(name string) fusion.Method {
	if m, ok := fusion.ByName(name); ok {
		return m
	}
	for _, m := range fusion.ExtensionMethods() {
		if m.Name() == name {
			return m
		}
	}
	panic("unknown method " + name)
}

// SourceSelectionExperiment answers "can we automatically select a subset
// of sources that lead to the best integration results?" with greedy
// forward selection against the recall-ordered prefix and the full set.
func SourceSelectionExperiment(e *Env) *report.Report {
	r := &report.Report{ID: "source-selection", Title: "Source selection (Section 5)"}
	const method = "AccuPr"
	for _, d := range e.Domains() {
		ordered := d.SourcesByRecall()
		m, _ := fusion.ByName(method)
		evalSubset := func(srcIdx []int) float64 {
			subset := make([]model.SourceID, len(srcIdx))
			for i, s := range srcIdx {
				subset[i] = ordered[s]
			}
			prob := fusion.Build(d.DS, d.Snap, subset, d.BuildOpts())
			res := m.Run(prob, d.FusionOpts(fusion.Options{MaxRounds: 30}))
			return fusion.Evaluate(d.DS, prob, res, d.Gold).Recall
		}
		// Bound the greedy search to the best 14 candidates by recall.
		nCand := 14
		if nCand > len(ordered) {
			nCand = len(ordered)
		}
		candidates := make([]int, nCand)
		for i := range candidates {
			candidates[i] = i
		}
		subset, recall := fusion.SelectSources(candidates, 8, evalSubset)

		all := make([]int, len(ordered))
		for i := range all {
			all[i] = i
		}
		allRecall := evalSubset(all)
		topK := evalSubset(all[:len(subset)])

		t := r.NewTable(d.Name, "Source set", "Sources", "Recall ("+method+")")
		t.AddRow("greedy selection", fmt.Sprintf("%d", len(subset)), report.F3(recall))
		t.AddRow("top-k by recall ordering", fmt.Sprintf("%d", len(subset)), report.F3(topK))
		t.AddRow("all fused sources", fmt.Sprintf("%d", len(ordered)), report.F3(allRecall))
		names := ""
		for i, s := range subset {
			if i > 0 {
				names += ", "
			}
			names += d.DS.Sources[ordered[s]].Name
		}
		r.Note("%s greedy picks: %s", d.Name, names)
	}
	r.Note("Paper: fusing a few high-recall sources beats fusing everything (Figure 9);")
	r.Note("greedy selection finds such a subset without trying every prefix.")
	return r
}
