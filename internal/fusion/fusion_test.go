package fusion

import (
	"testing"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// scenario builds a dataset + snapshot from a compact description: claims
// maps source name -> object key -> attribute -> raw numeric value.
type scenario struct {
	ds    *model.Dataset
	snap  *model.Snapshot
	gold  *model.TruthTable
	names map[string]model.SourceID
}

// buildScenario wires up numeric claims; truth maps "obj/attr" to the true
// value (becomes the gold standard).
func buildScenario(t *testing.T, attrs []string, claims map[string]map[string]map[string]float64,
	truth map[string]map[string]float64) *scenario {
	t.Helper()
	ds := model.NewDataset("scenario")
	attrID := map[string]model.AttrID{}
	for _, a := range attrs {
		attrID[a] = ds.AddAttr(model.Attribute{Name: a, Kind: value.Number, Considered: true})
	}
	names := map[string]model.SourceID{}
	objID := map[string]model.ObjectID{}
	var raw []model.Claim
	for src, objs := range claims {
		if _, ok := names[src]; !ok {
			names[src] = ds.AddSource(model.Source{Name: src})
		}
		for obj, avs := range objs {
			if _, ok := objID[obj]; !ok {
				objID[obj] = ds.AddObject(model.Object{Key: obj})
			}
			for a, v := range avs {
				raw = append(raw, model.Claim{
					Source: names[src], Item: ds.ItemFor(objID[obj], attrID[a]),
					Val: value.Num(v), CopiedFrom: model.NoSource,
				})
			}
		}
	}
	snap := model.NewSnapshot(0, "s", len(ds.Items), raw)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.01, snap)
	gld := model.NewTruthTable()
	for obj, avs := range truth {
		for a, v := range avs {
			if item, ok := ds.LookupItem(objID[obj], attrID[a]); ok {
				gld.Set(item, value.Num(v))
			}
		}
	}
	return &scenario{ds: ds, snap: snap, gold: gld, names: names}
}

// honestMajority: three sources agree, one dissents, on every item. Every
// method must follow the majority.
func honestMajorityScenario(t *testing.T) *scenario {
	claims := map[string]map[string]map[string]float64{}
	truth := map[string]map[string]float64{}
	objs := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	for oi, obj := range objs {
		base := float64(100 + 10*oi)
		truth[obj] = map[string]float64{"p": base}
		for _, src := range []string{"s1", "s2", "s3"} {
			if claims[src] == nil {
				claims[src] = map[string]map[string]float64{}
			}
			claims[src][obj] = map[string]float64{"p": base}
		}
		if claims["bad"] == nil {
			claims["bad"] = map[string]map[string]float64{}
		}
		claims["bad"][obj] = map[string]float64{"p": base * 2}
	}
	return buildScenario(t, []string{"p"}, claims, truth)
}

func TestAllMethodsFollowHonestMajority(t *testing.T) {
	sc := honestMajorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	for _, m := range Methods() {
		res := m.Run(p, Options{})
		ev := Evaluate(sc.ds, p, res, sc.gold)
		if ev.Precision != 1 {
			t.Errorf("%s precision = %v on honest-majority data, want 1", m.Name(), ev.Precision)
		}
		if len(res.Chosen) != len(p.Items) {
			t.Errorf("%s chose %d items, want %d", m.Name(), len(res.Chosen), len(p.Items))
		}
	}
}

// trustedMinority: two reliable sources vs three copies of the same wrong
// answer on a few contested items; the reliable pair is right everywhere on
// many calibration items. Trust-aware methods given sampled trust must side
// with the reliable pair on the contested items.
func trustedMinorityScenario(t *testing.T) *scenario {
	claims := map[string]map[string]map[string]float64{}
	truth := map[string]map[string]float64{}
	add := func(src, obj string, v float64) {
		if claims[src] == nil {
			claims[src] = map[string]map[string]float64{}
		}
		if claims[src][obj] == nil {
			claims[src][obj] = map[string]float64{}
		}
		claims[src][obj]["p"] = v
	}
	// 20 calibration items: good sources right, bad trio wrong in
	// different (uncorrelated) ways.
	for i := 0; i < 20; i++ {
		obj := "cal" + string(rune('a'+i))
		base := float64(100 + i)
		truth[obj] = map[string]float64{"p": base}
		add("good1", obj, base)
		add("good2", obj, base)
		add("bad1", obj, base+float64(3+i%5))
		add("bad2", obj, base-float64(4+i%3))
		add("bad3", obj, base+float64(7+i%2))
	}
	// 5 contested items: the bad trio agrees on a wrong value.
	for i := 0; i < 5; i++ {
		obj := "hot" + string(rune('a'+i))
		base := float64(500 + i)
		truth[obj] = map[string]float64{"p": base}
		add("good1", obj, base)
		add("good2", obj, base)
		add("bad1", obj, base+50)
		add("bad2", obj, base+50)
		add("bad3", obj, base+50)
	}
	return buildScenario(t, []string{"p"}, claims, truth)
}

func TestVoteLosesToTrustAwareOnTrustedMinority(t *testing.T) {
	sc := trustedMinorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})

	vote := methodNamed("Vote").Run(p, Options{})
	evVote := Evaluate(sc.ds, p, vote, sc.gold)
	if evVote.Precision == 1 {
		t.Fatal("scenario broken: VOTE should err on contested items")
	}

	acc := SampleAccuracy(sc.ds, sc.snap, p, sc.gold)
	for _, name := range []string{"AccuPr", "TruthFinder", "2-Estimates", "Cosine"} {
		m, _ := ByName(name)
		res := m.Run(p, Options{InputTrust: m.TrustScale(acc)})
		ev := Evaluate(sc.ds, p, res, sc.gold)
		if ev.Precision != 1 {
			t.Errorf("%s with sampled trust precision = %v, want 1", name, ev.Precision)
		}
	}
	// Iterative AccuPr should also learn who to trust (the bad trio's
	// calibration errors are uncorrelated, so their accuracy collapses).
	res := methodNamed("AccuPr").Run(p, Options{})
	ev := Evaluate(sc.ds, p, res, sc.gold)
	if ev.Precision <= evVote.Precision {
		t.Errorf("iterative AccuPr (%v) should beat VOTE (%v)", ev.Precision, evVote.Precision)
	}
}

// formatScenario: three sources round the true value coarsely (all agreeing
// on the rounded figure), two report it exactly. VOTE picks the coarse
// cluster; ACCUFORMAT must recover the exact value.
func TestAccuFormatRecoversFineValue(t *testing.T) {
	ds := model.NewDataset("fmt")
	vol := ds.AddAttr(model.Attribute{Name: "volume", Kind: value.Number, Considered: true})
	var srcs []model.SourceID
	for _, n := range []string{"r1", "r2", "r3", "e1", "e2"} {
		srcs = append(srcs, ds.AddSource(model.Source{Name: n}))
	}
	var raw []model.Claim
	gld := model.NewTruthTable()
	for i := 0; i < 12; i++ {
		o := ds.AddObject(model.Object{Key: string(rune('A' + i))})
		truth := 6651200.0 + float64(i)*1e6
		item := ds.ItemFor(o, vol)
		gld.Set(item, value.Num(truth))
		coarse := value.NumGran(value.RoundTo(truth, 1e5), 1e5)
		for s := 0; s < 3; s++ {
			raw = append(raw, model.Claim{Source: srcs[s], Item: item, Val: coarse, CopiedFrom: model.NoSource})
		}
		for s := 3; s < 5; s++ {
			raw = append(raw, model.Claim{Source: srcs[s], Item: item, Val: value.Num(truth), CopiedFrom: model.NoSource})
		}
	}
	snap := model.NewSnapshot(0, "s", len(ds.Items), raw)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.001, snap) // tolerance ~7k: rounded values are distinct buckets

	p := Build(ds, snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	if len(p.Format[0]) == 0 {
		t.Fatal("format pairs not detected")
	}

	vote := methodNamed("Vote").Run(p, Options{})
	if ev := Evaluate(ds, p, vote, gld); ev.Precision != 0 {
		t.Fatalf("VOTE should pick the coarse cluster everywhere, precision %v", ev.Precision)
	}
	res := methodNamed("AccuFormat").Run(p, Options{})
	if ev := Evaluate(ds, p, res, gld); ev.Precision != 1 {
		t.Errorf("AccuFormat precision = %v, want 1 (format subsumption)", ev.Precision)
	}
}

// copyScenario: a clique of four copies one erratic origin and outvotes
// three honest sources. AccuCopy (robust detection) must beat AccuPr.
func TestAccuCopyDiscountsClique(t *testing.T) {
	claims := map[string]map[string]map[string]float64{}
	truth := map[string]map[string]float64{}
	add := func(src, obj string, v float64) {
		if claims[src] == nil {
			claims[src] = map[string]map[string]float64{}
		}
		claims[src][obj] = map[string]float64{"p": v}
	}
	clique := []string{"c1", "c2", "c3", "c4"}
	honest := []string{"h1", "h2", "h3"}
	for i := 0; i < 40; i++ {
		obj := "o" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		base := float64(100 + 7*i)
		truth[obj] = map[string]float64{"p": base}
		for _, h := range honest {
			add(h, obj, base)
		}
		// The origin is wrong on 40% of items; every clique member repeats
		// its exact value.
		v := base
		if i%5 < 2 {
			v = base + 31 + float64(i) // unique wrong value per item
		}
		for _, c := range clique {
			add(c, obj, v)
		}
	}
	sc := buildScenario(t, []string{"p"}, claims, truth)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})

	vote := methodNamed("Vote").Run(p, Options{})
	evVote := Evaluate(sc.ds, p, vote, sc.gold)
	if evVote.Precision > 0.9 {
		t.Fatalf("scenario broken: VOTE = %v, clique should dominate", evVote.Precision)
	}
	res := methodNamed("AccuCopy").Run(p, Options{})
	ev := Evaluate(sc.ds, p, res, sc.gold)
	if ev.Precision <= evVote.Precision {
		t.Errorf("AccuCopy (%v) should beat VOTE (%v) on copied errors", ev.Precision, evVote.Precision)
	}
	// Known groups resolve it fully.
	groups := [][]model.SourceID{{sc.names["c1"], sc.names["c2"], sc.names["c3"], sc.names["c4"]}}
	resK := methodNamed("AccuCopy").Run(p, Options{KnownGroups: groups})
	evK := Evaluate(sc.ds, p, resK, sc.gold)
	if evK.Precision != 1 {
		t.Errorf("AccuCopy with known groups = %v, want 1", evK.Precision)
	}
}

func TestBuildProblem(t *testing.T) {
	sc := honestMajorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{NeedSimilarity: true})
	if len(p.Items) != 8 {
		t.Fatalf("items = %d, want 8", len(p.Items))
	}
	for i := range p.Items {
		it := &p.Items[i]
		if it.Providers != 4 {
			t.Errorf("item %d providers = %d, want 4", i, it.Providers)
		}
		if len(it.Buckets) != 2 {
			t.Errorf("item %d buckets = %d, want 2", i, len(it.Buckets))
		}
		if len(it.Buckets[0].Sources) < len(it.Buckets[1].Sources) {
			t.Error("buckets not sorted by support")
		}
	}
	if p.Sim == nil {
		t.Error("similarity not built")
	}
	// Source restriction.
	restricted := Build(sc.ds, sc.snap, []model.SourceID{sc.names["s1"]}, BuildOptions{})
	if restricted.Items[0].Providers != 1 {
		t.Errorf("restricted providers = %d", restricted.Items[0].Providers)
	}
}

func TestEvaluateAndTrust(t *testing.T) {
	sc := honestMajorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{})
	res := methodNamed("Vote").Run(p, Options{})
	ev := Evaluate(sc.ds, p, res, sc.gold)
	if ev.Precision != 1 || ev.Recall != 1 || ev.Errors != 0 {
		t.Errorf("Evaluate = %+v", ev)
	}
	// Trust evaluation with a non-trust method is a no-op.
	EvaluateTrust(&ev, res, []float64{1, 1, 1, 1})
	if ev.TrustDev != 0 {
		t.Errorf("VOTE trust dev = %v", ev.TrustDev)
	}
	// With a trust method.
	hub := methodNamed("Hub").Run(p, Options{})
	ev2 := Evaluate(sc.ds, p, hub, sc.gold)
	EvaluateTrust(&ev2, hub, SampleAccuracy(sc.ds, sc.snap, p, sc.gold))
	if ev2.TrustDev <= 0 {
		t.Errorf("Hub trust deviation should be positive, got %v", ev2.TrustDev)
	}
}

func TestSampleAccuracy(t *testing.T) {
	sc := trustedMinorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{})
	acc := SampleAccuracy(sc.ds, sc.snap, p, sc.gold)
	idx := func(name string) int {
		for i, s := range p.SourceIDs {
			if s == sc.names[name] {
				return i
			}
		}
		t.Fatalf("source %s not found", name)
		return -1
	}
	if acc[idx("good1")] != 1 {
		t.Errorf("good1 accuracy = %v", acc[idx("good1")])
	}
	if acc[idx("bad1")] >= 0.5 {
		t.Errorf("bad1 accuracy = %v, want low", acc[idx("bad1")])
	}
	attrAcc := SampleAttrAccuracy(sc.ds, sc.snap, p, sc.gold)
	if attrAcc[idx("good1")][0] != 1 {
		t.Errorf("good1 attr accuracy = %v", attrAcc[idx("good1")][0])
	}
}

func TestMethodRegistry(t *testing.T) {
	ms := Methods()
	if len(ms) != 16 {
		t.Fatalf("method count = %d, want 16", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if seen[m.Name()] {
			t.Errorf("duplicate method %s", m.Name())
		}
		seen[m.Name()] = true
		if got, ok := ByName(m.Name()); !ok || got.Name() != m.Name() {
			t.Errorf("ByName(%s) failed", m.Name())
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName of unknown method should fail")
	}
}

func TestCosineTrustScale(t *testing.T) {
	got := methodNamed("Cosine").TrustScale([]float64{1, 0.5, 0})
	want := []float64{1, 0, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Cosine scale[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDeterminism(t *testing.T) {
	sc := trustedMinorityScenario(t)
	p := Build(sc.ds, sc.snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	for _, m := range Methods() {
		r1 := m.Run(p, Options{})
		r2 := m.Run(p, Options{})
		for i := range r1.Chosen {
			if r1.Chosen[i] != r2.Chosen[i] {
				t.Errorf("%s is non-deterministic at item %d", m.Name(), i)
				break
			}
		}
	}
}

func TestHelpers(t *testing.T) {
	if argmax32([]float64{1, 3, 3, 2}) != 1 {
		t.Error("argmax32 should prefer the first maximum")
	}
	xs := []float64{2, 4}
	normalizeMax(xs)
	if xs[0] != 0.5 || xs[1] != 1 {
		t.Errorf("normalizeMax = %v", xs)
	}
	zeros := []float64{0, 0}
	normalizeMax(zeros)
	if zeros[0] != 0 {
		t.Error("normalizeMax of zeros should be a no-op")
	}
	ys := []float64{1, 2, 3}
	rescale01(ys)
	if ys[0] != 0 || ys[2] != 1 {
		t.Errorf("rescale01 = %v", ys)
	}
	same := []float64{5, 5}
	rescale01(same)
	if same[0] != 5 {
		t.Error("rescale01 of constant input should be a no-op")
	}
	if clampTrust(2, 0, 1) != 1 || clampTrust(-1, 0, 1) != 0 || clampTrust(0.5, 0, 1) != 0.5 {
		t.Error("clampTrust bounds wrong")
	}
}
