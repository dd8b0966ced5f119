package fusion

import (
	"testing"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

func TestEnsembleAgreesOnEasyData(t *testing.T) {
	sc := honestMajorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	res := Ensemble().Run(p, Options{})
	ev := Evaluate(sc.ds, p, res, sc.gold)
	if ev.Precision != 1 {
		t.Errorf("ensemble precision = %v on honest-majority data", ev.Precision)
	}
	if res.Trust == nil {
		t.Error("ensemble should report mean member trust")
	}
	needs := Ensemble().Needs()
	if !needs.NeedSimilarity || !needs.NeedFormat {
		t.Error("default ensemble should need similarity and format structures")
	}
}

func TestEnsembleMajorityOverrulesOneMember(t *testing.T) {
	sc := trustedMinorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	// Vote errs on the contested items; an ensemble of trust-aware methods
	// plus Vote should side with the trust-aware majority.
	e := Ensemble("Vote", "AccuPr", "TruthFinder")
	res := e.Run(p, Options{})
	ev := Evaluate(sc.ds, p, res, sc.gold)
	vote := Evaluate(sc.ds, p, methodNamed("Vote").Run(p, Options{}), sc.gold)
	if ev.Precision < vote.Precision {
		t.Errorf("ensemble (%v) should not trail VOTE (%v)", ev.Precision, vote.Precision)
	}
	// Unknown members are skipped gracefully.
	odd := Ensemble("Vote", "NoSuchMethod")
	if r := odd.Run(p, Options{}); len(r.Chosen) != len(p.Items) {
		t.Error("ensemble with unknown member should still produce answers")
	}
}

func TestSeedTrust(t *testing.T) {
	sc := honestMajorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{})
	seed := SeedTrust(p, 0.6)
	good := indexOfSource(p, sc.names["s1"])
	bad := indexOfSource(p, sc.names["bad"])
	if seed[good] != 1 || seed[bad] != 0 {
		t.Errorf("seed trust: good=%v bad=%v, want 1 and 0", seed[good], seed[bad])
	}
	for _, s := range seed {
		if s < 0 || s > 1 {
			t.Errorf("seed trust out of range: %v", s)
		}
	}
	// Seeding the iteration must not hurt AccuPr here.
	plain := Evaluate(sc.ds, p, methodNamed("AccuPr").Run(p, Options{}), sc.gold)
	seeded := Evaluate(sc.ds, p, methodNamed("AccuPr").Run(p, Options{InitialTrust: seed}), sc.gold)
	if seeded.Precision < plain.Precision {
		t.Errorf("seeded AccuPr (%v) worse than default (%v)", seeded.Precision, plain.Precision)
	}
}

// SeedTrust is only as good as its pseudo-truth: when the dominant values
// at the chosen threshold are the copied wrong ones, the seed inverts —
// worth pinning down since the paper flags seeding as an open question.
func TestSeedTrustCanInvertOnPoisonedDominants(t *testing.T) {
	sc := trustedMinorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{})
	// At threshold .6 the only qualifying items are the contested ones,
	// where the bad trio's shared wrong value dominates.
	seed := SeedTrust(p, 0.6)
	good := indexOfSource(p, sc.names["good1"])
	bad := indexOfSource(p, sc.names["bad1"])
	if seed[good] > seed[bad] {
		t.Skip("scenario did not poison the seed at this threshold")
	}
	if seed[good] != 0 || seed[bad] != 1 {
		t.Errorf("expected fully inverted seed, got good=%v bad=%v", seed[good], seed[bad])
	}
}

func TestSeedTrustNoConsistentItems(t *testing.T) {
	// All items fully conflicted: no item passes the dominance threshold,
	// every source gets the fallback mean.
	ds := model.NewDataset("seed")
	attr := ds.AddAttr(model.Attribute{Name: "a", Kind: value.Number, Considered: true})
	for i := 0; i < 3; i++ {
		ds.AddSource(model.Source{Name: string(rune('a' + i))})
	}
	obj := ds.AddObject(model.Object{Key: "O"})
	item := ds.ItemFor(obj, attr)
	var claims []model.Claim
	for i := 0; i < 3; i++ {
		claims = append(claims, model.Claim{
			Source: model.SourceID(i), Item: item,
			Val: value.Num(float64(100 * (i + 1))), CopiedFrom: model.NoSource,
		})
	}
	snap := model.NewSnapshot(0, "s", 1, claims)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.01, snap)
	p := Build(ds, snap, nil, BuildOptions{})
	seed := SeedTrust(p, 0.9)
	for _, s := range seed {
		if s != 0.8 {
			t.Errorf("fallback seed = %v, want 0.8", s)
		}
	}
}

// AccuSimCat: split-personality sources (one perfect on UA flights and bad
// on AA, one the reverse) plus a mediocre crowd. Per-category trust learns
// the split from the crowd's majority signal and decides the items where
// the whole crowd errs; global trust sees only 50%-accurate specialists and
// cannot.
func TestAccuSimCatIsolation(t *testing.T) {
	ds := model.NewDataset("cat")
	attr := ds.AddAttr(model.Attribute{Name: "n", Kind: value.Number, Considered: true})
	ua := ds.AddSource(model.Source{Name: "ua-insider"})
	aa := ds.AddSource(model.Source{Name: "aa-insider"})
	c1 := ds.AddSource(model.Source{Name: "c1"})
	c2 := ds.AddSource(model.Source{Name: "c2"})

	var claims []model.Claim
	gld := model.NewTruthTable()
	add := func(src model.SourceID, item model.ItemID, v float64) {
		claims = append(claims, model.Claim{Source: src, Item: item, Val: value.Num(v), CopiedFrom: model.NoSource})
	}
	for i := 0; i < 120; i++ {
		group := "UA"
		if i%2 == 1 {
			group = "AA"
		}
		obj := ds.AddObject(model.Object{Key: string(rune('A'+i%26)) + string(rune('a'+i/26)), Group: group})
		item := ds.ItemFor(obj, attr)
		truth := float64(1000 + 17*i)
		gld.Set(item, value.Num(truth))

		// Specialists: right on their airline, wrong (uniquely) elsewhere.
		if group == "UA" {
			add(ua, item, truth)
			add(aa, item, truth+200+float64(3*i))
		} else {
			add(aa, item, truth)
			add(ua, item, truth-300-float64(2*i))
		}
		// Crowd: each member independently wrong ~40% of the time, with
		// distinct wrong values so crowd errors never reinforce.
		v1, v2 := truth, truth
		if i%5 < 2 {
			v1 = truth + 91 + float64(i)
		}
		if i%3 == 0 {
			v2 = truth - 77 - float64(i)
		}
		add(c1, item, v1)
		add(c2, item, v2)
	}
	snap := model.NewSnapshot(0, "s", len(ds.Items), claims)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.001, snap)
	p := Build(ds, snap, nil, BuildOptions{NeedSimilarity: true})
	if len(p.CatNames) != 2 {
		t.Fatalf("categories = %v", p.CatNames)
	}

	cat := Evaluate(ds, p, methodNamed("AccuSimCat").Run(p, Options{}), gld)
	global := Evaluate(ds, p, methodNamed("AccuSim").Run(p, Options{}), gld)
	if cat.Precision <= global.Precision {
		t.Errorf("per-category trust (%v) should beat global trust (%v) on split-personality sources",
			cat.Precision, global.Precision)
	}
	if cat.Precision < 0.9 {
		t.Errorf("AccuSimCat precision = %v, want near-perfect", cat.Precision)
	}
}

func TestExtensionRegistry(t *testing.T) {
	ms := ExtensionMethods()
	if len(ms) != 2 {
		t.Fatalf("extension methods = %d", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.Name()] = true
	}
	if !names["Ensemble"] || !names["AccuSimCat"] {
		t.Errorf("extension names = %v", names)
	}
	// Extensions are not in the paper roster.
	for _, m := range Methods() {
		if names[m.Name()] {
			t.Errorf("%s leaked into the paper roster", m.Name())
		}
	}
}

func TestSelectSources(t *testing.T) {
	// Synthetic evaluator: value of a subset = sum of per-source gains,
	// with source 3 poisoning any subset it joins.
	gain := map[int]float64{0: 0.5, 1: 0.3, 2: 0.2, 3: -0.4, 4: 0.05}
	eval := func(subset []int) float64 {
		var v float64
		for _, s := range subset {
			v += gain[s]
		}
		return v
	}
	subset, recall := SelectSources([]int{0, 1, 2, 3, 4}, 5, eval)
	if recall != 1.05 {
		t.Errorf("greedy recall = %v, want 1.05", recall)
	}
	for _, s := range subset {
		if s == 3 {
			t.Error("greedy selection included the poisonous source")
		}
	}
	if len(subset) != 4 {
		t.Errorf("subset size = %d, want 4", len(subset))
	}
	// maxSources is honoured.
	small, _ := SelectSources([]int{0, 1, 2, 3, 4}, 2, eval)
	if len(small) != 2 || small[0] != 0 || small[1] != 1 {
		t.Errorf("capped selection = %v", small)
	}
}
