package fusion

import (
	"math"
	"sort"
	"testing"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// TestTrustedInputShortCircuits verifies that supplying input trust skips
// the trust-estimation loop for the non-copy methods (a single round).
func TestTrustedInputShortCircuits(t *testing.T) {
	sc := honestMajorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	acc := SampleAccuracy(sc.ds, sc.snap, p, sc.gold)
	for _, m := range Methods() {
		if m.Name() == "Vote" || m.Name() == "AccuCopy" {
			continue
		}
		res := m.Run(p, Options{InputTrust: m.TrustScale(acc)})
		if res.Rounds != 1 {
			t.Errorf("%s with input trust ran %d rounds, want 1", m.Name(), res.Rounds)
		}
		if !res.Converged {
			t.Errorf("%s with input trust reported non-convergence", m.Name())
		}
	}
}

// TestTrustRanking verifies the iterative methods rank a clean source above
// a noisy one (the core of every trust-aware method).
func TestTrustRanking(t *testing.T) {
	sc := trustedMinorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	good, bad := -1, -1
	for i, s := range p.SourceIDs {
		switch {
		case s == sc.names["good1"]:
			good = i
		case s == sc.names["bad1"]:
			bad = i
		}
	}
	for _, name := range []string{"Hub", "AvgLog", "Cosine", "2-Estimates",
		"TruthFinder", "AccuPr", "PopAccu", "AccuSim"} {
		m, _ := ByName(name)
		res := m.Run(p, Options{})
		if res.Trust[good] <= res.Trust[bad] {
			t.Errorf("%s trust: good=%.4f bad=%.4f, want good > bad",
				name, res.Trust[good], res.Trust[bad])
		}
	}
}

// TestAttrTrustIsolation: a source that is perfect on one attribute and
// terrible on another should be followed on the good attribute by the
// per-attribute methods even when its overall accuracy is mediocre.
func TestAttrTrustIsolation(t *testing.T) {
	ds := model.NewDataset("attr")
	a1 := ds.AddAttr(model.Attribute{Name: "alpha", Kind: value.Number, Considered: true})
	a2 := ds.AddAttr(model.Attribute{Name: "beta", Kind: value.Number, Considered: true})
	specialist := ds.AddSource(model.Source{Name: "specialist"})
	var crowd []model.SourceID
	for _, n := range []string{"c1", "c2"} {
		crowd = append(crowd, ds.AddSource(model.Source{Name: n}))
	}
	var claims []model.Claim
	gld := model.NewTruthTable()
	for i := 0; i < 30; i++ {
		obj := ds.AddObject(model.Object{Key: string(rune('A'+i%26)) + string(rune('0'+i/26))})
		truthAlpha := float64(100 + 13*i)
		truthBeta := float64(5000 + 13*i)
		iAlpha := ds.ItemFor(obj, a1)
		iBeta := ds.ItemFor(obj, a2)
		gld.Set(iAlpha, value.Num(truthAlpha))
		gld.Set(iBeta, value.Num(truthBeta))
		// Specialist: always right on alpha, always wrong on beta.
		claims = append(claims,
			model.Claim{Source: specialist, Item: iAlpha, Val: value.Num(truthAlpha), CopiedFrom: model.NoSource},
			model.Claim{Source: specialist, Item: iBeta, Val: value.Num(truthBeta + 400 + float64(7*i)), CopiedFrom: model.NoSource},
		)
		// The crowd: right on beta; on alpha the two crowd members agree on
		// a wrong value (they outvote the specialist 2-1 under VOTE).
		for _, c := range crowd {
			claims = append(claims,
				model.Claim{Source: c, Item: iAlpha, Val: value.Num(truthAlpha + 57), CopiedFrom: model.NoSource},
				model.Claim{Source: c, Item: iBeta, Val: value.Num(truthBeta), CopiedFrom: model.NoSource},
			)
		}
	}
	snap := model.NewSnapshot(0, "s", len(ds.Items), claims)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.001, snap)
	p := Build(ds, snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})

	attrAcc := SampleAttrAccuracy(ds, snap, p, gld)
	m, _ := ByName("AccuSimAttr")
	res := m.Run(p, Options{InputAttrTrust: attrAcc})
	ev := Evaluate(ds, p, res, gld)
	if ev.Precision != 1 {
		t.Errorf("AccuSimAttr with per-attribute trust = %v, want 1 "+
			"(the specialist should win alpha, the crowd beta)", ev.Precision)
	}
	if res.AttrTrust == nil {
		t.Error("per-attribute trust not reported")
	}

	// Global-trust AccuPr with sampled trust cannot fix alpha: everyone's
	// overall accuracy is 0.5, so the 2-vote crowd wins.
	acc := SampleAccuracy(ds, snap, p, gld)
	g, _ := ByName("AccuPr")
	resG := g.Run(p, Options{InputTrust: acc})
	evG := Evaluate(ds, p, resG, gld)
	if evG.Precision > ev.Precision {
		t.Errorf("global trust (%v) should not beat per-attribute trust (%v)",
			evG.Precision, ev.Precision)
	}
}

// TestSimilarityBoost: a value whose support is split across near-identical
// variants should still beat a single slightly-more-popular far value when
// similarity is considered.
func TestSimilarityBoost(t *testing.T) {
	ds := model.NewDataset("sim")
	attr := ds.AddAttr(model.Attribute{Name: "n", Kind: value.Number, Considered: true})
	var srcs []model.SourceID
	for i := 0; i < 11; i++ {
		srcs = append(srcs, ds.AddSource(model.Source{Name: string(rune('a' + i))}))
	}
	var claims []model.Claim
	gld := model.NewTruthTable()
	add := func(s int, item model.ItemID, v float64) {
		claims = append(claims, model.Claim{
			Source: srcs[s], Item: item, Val: value.Num(v), CopiedFrom: model.NoSource,
		})
	}
	for i := 0; i < 10; i++ {
		obj := ds.AddObject(model.Object{Key: string(rune('A' + i))})
		item := ds.ItemFor(obj, attr)
		truth := float64(1000 + 100*i)
		gld.Set(item, value.Num(truth))
		// Support 3 on the exact truth, 2+2 on micro-variants just outside
		// tolerance (but similar), 4 on one far wrong value.
		add(0, item, truth)
		add(1, item, truth)
		add(2, item, truth)
		add(3, item, truth+2)
		add(4, item, truth+2)
		add(5, item, truth-2)
		add(6, item, truth-2)
		add(7, item, truth+500)
		add(8, item, truth+500)
		add(9, item, truth+500)
		add(10, item, truth+500)
	}
	snap := model.NewSnapshot(0, "s", len(ds.Items), claims)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.001, snap) // tolerance ~1.5: the +-2 variants are separate buckets

	p := Build(ds, snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	if len(p.Items[0].Buckets) != 4 {
		t.Fatalf("buckets = %d, want the variants split apart", len(p.Items[0].Buckets))
	}
	vote := Vote{}.Run(p, Options{})
	if ev := Evaluate(ds, p, vote, gld); ev.Precision != 0 {
		t.Fatalf("VOTE should pick the far cluster, got %v", ev.Precision)
	}
	sim := AccuSim{}.Run(p, Options{})
	if ev := Evaluate(ds, p, sim, gld); ev.Precision != 1 {
		t.Errorf("AccuSim = %v, want 1 (similar values reinforce each other)", ev.Precision)
	}
}

// Invest's non-linear vote growth must hold: g = 1.2.
func TestInvestExponent(t *testing.T) {
	if investExponent != 1.2 {
		t.Errorf("invest exponent = %v, want the paper's 1.2", investExponent)
	}
}

// 3-Estimates must expose per-value error factors through a sane run.
func TestThreeEstimatesRuns(t *testing.T) {
	sc := trustedMinorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{})
	res := ThreeEstimates{}.Run(p, Options{MaxRounds: 40})
	if len(res.Trust) != len(p.SourceIDs) {
		t.Fatal("trust vector size mismatch")
	}
	for _, tr := range res.Trust {
		if tr < 0 || tr > 1 {
			t.Errorf("3-Estimates trust out of [0,1]: %v", tr)
		}
	}
}

// PooledInvest's trust is deliberately unnormalised (the paper's Table 7
// shows its huge trust deviation); it must still be finite.
func TestPooledInvestUnbounded(t *testing.T) {
	sc := trustedMinorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{})
	res := PooledInvest{}.Run(p, Options{})
	for _, tr := range res.Trust {
		if math.IsNaN(tr) || math.IsInf(tr, 0) {
			t.Fatalf("PooledInvest trust not finite: %v", tr)
		}
	}
}

// filterProblem must preserve bucket/rep structure minus the ignored
// sources, and runWithKnownGroups must map choices back correctly.
func TestFilterProblem(t *testing.T) {
	sc := honestMajorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	ignore := make([]bool, len(p.SourceIDs))
	for i, s := range p.SourceIDs {
		if s == sc.names["bad"] {
			ignore[i] = true
		}
	}
	f := filterProblem(p, ignore)
	if len(f.Items) != len(p.Items) {
		t.Fatalf("filtered items = %d, want %d", len(f.Items), len(p.Items))
	}
	for i := range f.Items {
		if len(f.Items[i].Buckets) != 1 {
			t.Errorf("item %d: %d buckets after removing the dissenter, want 1",
				i, len(f.Items[i].Buckets))
		}
		if f.Items[i].Providers != 3 {
			t.Errorf("item %d providers = %d", i, f.Items[i].Providers)
		}
	}
	if f.ClaimsPerSource[indexOfSource(p, sc.names["bad"])] != 0 {
		t.Error("ignored source still has claims")
	}
	// Ignoring everything drops all items.
	all := make([]bool, len(p.SourceIDs))
	for i := range all {
		all[i] = true
	}
	if got := filterProblem(p, all); len(got.Items) != 0 {
		t.Errorf("fully filtered problem has %d items", len(got.Items))
	}
}

// TestFilterProblemLayout: when filtering re-ranks an item's buckets, the
// filtered problem must still equal the per-item reference and lay its
// bucket, source and similarity views contiguously in bucket order.
func TestFilterProblemLayout(t *testing.T) {
	ds, snaps := incWorld(t, 5, 1)
	p := Build(ds, snaps[0], nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	ignore := make([]bool, len(p.SourceIDs))
	for s := range ignore {
		ignore[s] = s%3 == 0
	}
	got := filterProblem(p, ignore)

	want := &Problem{Format: [][]FormatPair{}, ClaimsPerSource: make([]int, len(p.SourceIDs))}
	reranked := 0
	for i := range p.Items {
		it := ProblemItem{Item: p.Items[i].Item, Attr: p.Items[i].Attr, Tol: p.Items[i].Tol}
		for _, bk := range p.Items[i].Buckets {
			var keep []int32
			for _, s := range bk.Sources {
				if !ignore[s] {
					keep = append(keep, s)
					want.ClaimsPerSource[s]++
				}
			}
			if len(keep) > 0 {
				it.Buckets = append(it.Buckets, Bucket{Rep: bk.Rep, Sources: keep})
				it.Providers += len(keep)
			}
		}
		if len(it.Buckets) == 0 {
			continue
		}
		byKept := func(a, b int) bool { return len(it.Buckets[a].Sources) > len(it.Buckets[b].Sources) }
		if !sort.SliceIsSorted(it.Buckets, byKept) {
			reranked++
		}
		sort.SliceStable(it.Buckets, byKept)
		n := len(it.Buckets)
		sim := make([]float32, n*n)
		fillSim(sim, &it)
		want.Items = append(want.Items, it)
		want.Sim = append(want.Sim, sim)
		want.Format = append(want.Format, formatFor(&it))
	}
	if reranked == 0 {
		t.Fatal("no item re-ranked its buckets: the test exercises nothing")
	}
	sameProblem(t, "filtered vs reference", got, want)
	assertContiguous(t, "filterProblem", got)
}

func indexOfSource(p *Problem, s model.SourceID) int {
	for i, x := range p.SourceIDs {
		if x == s {
			return i
		}
	}
	return -1
}

// The known-groups path keeps the first member of each group.
func TestKnownGroupsKeepRepresentative(t *testing.T) {
	sc := honestMajorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	groups := [][]model.SourceID{{sc.names["s1"], sc.names["s2"], sc.names["s3"]}}
	res := AccuCopy{}.Run(p, Options{KnownGroups: groups})
	// s2, s3 dropped; remaining s1 vs bad is a 1-1 tie — any valid bucket
	// is acceptable, the run must simply be well-formed.
	if len(res.Chosen) != len(p.Items) {
		t.Fatal("result size mismatch")
	}
	for i, c := range res.Chosen {
		if c < 0 || int(c) >= len(p.Items[i].Buckets) {
			t.Fatalf("invalid choice %d for item %d", c, i)
		}
	}
}

// Similarity-aware copy detection must not flag sources for sharing values
// close to the truth.
func TestCopyDetectSimilarityAware(t *testing.T) {
	ds := model.NewDataset("simaware")
	attr := ds.AddAttr(model.Attribute{Name: "n", Kind: value.Number, Considered: true})
	near1 := ds.AddSource(model.Source{Name: "near1"})
	near2 := ds.AddSource(model.Source{Name: "near2"})
	var honest []model.SourceID
	for _, n := range []string{"h1", "h2", "h3"} {
		honest = append(honest, ds.AddSource(model.Source{Name: n}))
	}
	var claims []model.Claim
	for i := 0; i < 60; i++ {
		obj := ds.AddObject(model.Object{Key: string(rune('A'+i%26)) + string(rune('a'+i/26))})
		item := ds.ItemFor(obj, attr)
		truth := float64(1000 + 10*i)
		for _, h := range honest {
			claims = append(claims, model.Claim{Source: h, Item: item, Val: value.Num(truth), CopiedFrom: model.NoSource})
		}
		// The near pair shares a convention (truth+3: outside tolerance,
		// inside the similarity band) but each also has its own independent
		// errors on disjoint items — they are NOT copying each other.
		v1, v2 := truth+3, truth+3
		if i%7 == 0 {
			v1 = truth + 90 + float64(i)
		}
		if i%7 == 3 {
			v2 = truth - 70 - float64(i)
		}
		claims = append(claims,
			model.Claim{Source: near1, Item: item, Val: value.Num(v1), CopiedFrom: model.NoSource},
			model.Claim{Source: near2, Item: item, Val: value.Num(v2), CopiedFrom: model.NoSource},
		)
	}
	snap := model.NewSnapshot(0, "s", len(ds.Items), claims)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.001, snap)
	p := Build(ds, snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	chosen := make([]int32, len(p.Items))
	acc := []float64{0.8, 0.8, 0.9, 0.9, 0.9}

	plain := DebugDetect(p, chosen, acc, Options{CopyDetectPaper2009: true})
	aware := DebugDetect(p, chosen, acc, Options{CopyDetectSimilarityAware: true})
	if plain[0][1] < 0.9 {
		t.Errorf("2009 detector should flag the near pair (dep=%v)", plain[0][1])
	}
	if aware[0][1] > 0.1 {
		t.Errorf("similarity-aware detector should clear the near pair (dep=%v)", aware[0][1])
	}
}
