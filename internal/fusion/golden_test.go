package fusion

import (
	"math"
	"testing"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// goldenProblem is a two-item fixture small enough to verify the methods'
// equations by hand:
//
//	item 0: s0, s1 -> 10 ; s2 -> 20
//	item 1: s0 -> 30 ; s2 -> 40
//
// s0 claims twice, s1 and s2 once or twice, tolerance keeps every distinct
// number in its own bucket.
func goldenProblem(t *testing.T) *Problem {
	t.Helper()
	ds := model.NewDataset("golden")
	attr := ds.AddAttr(model.Attribute{Name: "a", Kind: value.Number, Considered: true})
	for _, n := range []string{"s0", "s1", "s2"} {
		ds.AddSource(model.Source{Name: n})
	}
	o0 := ds.AddObject(model.Object{Key: "O0"})
	o1 := ds.AddObject(model.Object{Key: "O1"})
	i0 := ds.ItemFor(o0, attr)
	i1 := ds.ItemFor(o1, attr)
	claims := []model.Claim{
		{Source: 0, Item: i0, Val: value.Num(10), CopiedFrom: model.NoSource},
		{Source: 1, Item: i0, Val: value.Num(10), CopiedFrom: model.NoSource},
		{Source: 2, Item: i0, Val: value.Num(20), CopiedFrom: model.NoSource},
		{Source: 0, Item: i1, Val: value.Num(30), CopiedFrom: model.NoSource},
		{Source: 2, Item: i1, Val: value.Num(40), CopiedFrom: model.NoSource},
	}
	snap := model.NewSnapshot(0, "g", len(ds.Items), claims)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.01, snap)
	return Build(ds, snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
}

func TestGoldenProblemShape(t *testing.T) {
	p := goldenProblem(t)
	if len(p.Items) != 2 {
		t.Fatalf("items = %d", len(p.Items))
	}
	if len(p.Items[0].Buckets) != 2 || len(p.Items[1].Buckets) != 2 {
		t.Fatalf("buckets = %d/%d", len(p.Items[0].Buckets), len(p.Items[1].Buckets))
	}
	if p.ClaimsPerSource[0] != 2 || p.ClaimsPerSource[1] != 1 || p.ClaimsPerSource[2] != 2 {
		t.Fatalf("claims per source = %v", p.ClaimsPerSource)
	}
	// Bucket 0 of item 0 is the {s0, s1} cluster on 10.
	if len(p.Items[0].Buckets[0].Sources) != 2 || p.Items[0].Buckets[0].Rep.Num != 10 {
		t.Fatalf("dominant bucket = %+v", p.Items[0].Buckets[0])
	}
}

// HUB, one round from uniform trust:
//
//	votes: item0 = {10: 2, 20: 1}, item1 = {30: 1, 40: 1}
//	trust: s0 = 2+1 = 3, s1 = 2, s2 = 1+1 = 2 -> normalised {1, 2/3, 2/3}
func TestGoldenHubFirstRound(t *testing.T) {
	p := goldenProblem(t)
	res := methodNamed("Hub").Run(p, Options{MaxRounds: 1})
	want := []float64{1, 2.0 / 3, 2.0 / 3}
	for s, w := range want {
		if math.Abs(res.Trust[s]-w) > 1e-12 {
			t.Errorf("Hub trust[%d] = %v, want %v", s, res.Trust[s], w)
		}
	}
	if res.Chosen[0] != 0 {
		t.Error("Hub should pick the supported bucket on item 0")
	}
}

// AVGLOG, one round from uniform trust:
//
//	s0: log(3) * (2+1)/2 = 1.648
//	s1: log(2) * 2/1     = 1.386
//	s2: log(3) * (1+1)/2 = 1.099
//
// normalised by the max (s0).
func TestGoldenAvgLogFirstRound(t *testing.T) {
	p := goldenProblem(t)
	res := methodNamed("AvgLog").Run(p, Options{MaxRounds: 1})
	raw := []float64{
		math.Log(3) * 1.5,
		math.Log(2) * 2,
		math.Log(3) * 1,
	}
	for s := range raw {
		want := raw[s] / raw[0]
		if math.Abs(res.Trust[s]-want) > 1e-12 {
			t.Errorf("AvgLog trust[%d] = %v, want %v", s, res.Trust[s], want)
		}
	}
}

// INVEST, one round from uniform trust (g = 1.2):
//
//	investments: s0 and s2 invest 1/2 per claim, s1 invests 1.
//	item0: inv(10) = 1/2 + 1 = 1.5 ; inv(20) = 1/2
//	item1: inv(30) = 1/2 ; inv(40) = 1/2
//	votes: 1.5^1.2, 0.5^1.2, ...
//	s0: vote(10) * (0.5/1.5) + vote(30) * 1 = 1.627*0.3333 + 0.435 = 0.977
//	s1: vote(10) * (1/1.5)                 = 1.085
//	s2: vote(20) * 1 + vote(40) * 1        = 0.870
func TestGoldenInvestFirstRound(t *testing.T) {
	p := goldenProblem(t)
	res := methodNamed("Invest").Run(p, Options{MaxRounds: 1})
	v15 := math.Pow(1.5, investExponent)
	v05 := math.Pow(0.5, investExponent)
	raw := []float64{
		v15*(0.5/1.5) + v05,
		v15 * (1 / 1.5),
		v05 + v05,
	}
	m := raw[1] // the max (s1)
	for s := range raw {
		if math.Abs(res.Trust[s]-raw[s]/m) > 1e-12 {
			t.Errorf("Invest trust[%d] = %v, want %v", s, res.Trust[s], raw[s]/m)
		}
	}
}

// ACCUPR with fixed input trust A = {.9, .6, .6} and N = 50:
//
//	C(s) = ln(50 A/(1-A)): C0 = ln(450), C1 = C2 = ln(75)
//	item0: L(10) = C0+C1, L(20) = C2 -> P(10) = 1/(1+exp(C2-C0-C1))
//	item1: L(30) = C0, L(40) = C2 -> 30 wins (C0 > C2)
func TestGoldenAccuPrVotes(t *testing.T) {
	p := goldenProblem(t)
	res := methodNamed("AccuPr").Run(p, Options{InputTrust: []float64{0.9, 0.6, 0.6}, NFalse: 50})
	if res.Chosen[0] != 0 {
		t.Error("AccuPr should choose 10 on item 0")
	}
	if p.Items[1].Buckets[res.Chosen[1]].Rep.Num != 30 {
		t.Errorf("AccuPr should choose the trusted source's 30 on item 1, got %v",
			p.Items[1].Buckets[res.Chosen[1]].Rep.Num)
	}
}

// TRUTHFINDER with fixed trust tau = {.9, .8, .8}:
//
//	sigma(10) = -ln(.1) - ln(.2), sigma(20) = -ln(.2)
//	both values are far apart so similarity adds nothing;
//	conf = 1/(1+exp(-0.3 sigma)).
func TestGoldenTruthFinderConfidence(t *testing.T) {
	p := goldenProblem(t)
	res := methodNamed("TruthFinder").Run(p, Options{InputTrust: []float64{0.9, 0.8, 0.8}})
	if res.Chosen[0] != 0 || p.Items[1].Buckets[res.Chosen[1]].Rep.Num != 30 {
		t.Errorf("TruthFinder choices = %v", res.Chosen)
	}
}

// COSINE trust scale sanity on the fixture: with input trust favouring s0,
// item 1 must follow s0.
func TestGoldenCosineWithTrust(t *testing.T) {
	p := goldenProblem(t)
	res := methodNamed("Cosine").Run(p, Options{InputTrust: []float64{0.9, 0.1, 0.1}})
	if p.Items[1].Buckets[res.Chosen[1]].Rep.Num != 30 {
		t.Errorf("Cosine should follow the trusted source, got %v",
			p.Items[1].Buckets[res.Chosen[1]].Rep.Num)
	}
}

// 2-ESTIMATES with strong input trust for s2 flips item 1 to 40.
func TestGoldenTwoEstimatesWithTrust(t *testing.T) {
	p := goldenProblem(t)
	res := methodNamed("2-Estimates").Run(p, Options{InputTrust: []float64{0.1, 0.1, 0.95}})
	if p.Items[1].Buckets[res.Chosen[1]].Rep.Num != 40 {
		t.Errorf("2-Estimates should follow the trusted dissenter, got %v",
			p.Items[1].Buckets[res.Chosen[1]].Rep.Num)
	}
}

// Ensemble on the fixture with methods that disagree about item 1: the
// majority of members decides.
func TestGoldenEnsembleMajority(t *testing.T) {
	p := goldenProblem(t)
	e := Ensemble("Vote", "Hub", "AvgLog")
	res := e.Run(p, Options{})
	// All three members are provider-count driven: item 0 -> 10; item 1 is
	// a 1-1 tie resolved toward the first bucket.
	if res.Chosen[0] != 0 {
		t.Error("ensemble must follow the unanimous members on item 0")
	}
}

// TestGoldenParallelismOne is the regression guard the parallel layer is
// held to: Parallelism 1 must reproduce the default-options outputs of
// every method on the golden fixture exactly, and the hand-derived golden
// numbers must hold on the serial path.
func TestGoldenParallelismOne(t *testing.T) {
	p := goldenProblem(t)
	methods := Methods()
	methods = append(methods, ExtensionMethods()...)
	for _, m := range methods {
		def := m.Run(p, Options{})
		serial := m.Run(p, Options{Parallelism: 1})
		if def.Rounds != serial.Rounds || def.Converged != serial.Converged {
			t.Fatalf("%s: rounds/converged diverge under Parallelism 1", m.Name())
		}
		for i := range def.Chosen {
			if def.Chosen[i] != serial.Chosen[i] {
				t.Fatalf("%s: chosen[%d] = %d (default) vs %d (serial)",
					m.Name(), i, def.Chosen[i], serial.Chosen[i])
			}
		}
		for s := range def.Trust {
			if def.Trust[s] != serial.Trust[s] {
				t.Fatalf("%s: trust[%d] = %v (default) vs %v (serial)",
					m.Name(), s, def.Trust[s], serial.Trust[s])
			}
		}
	}

	// The hand-derived golden numbers must hold on the serial path too.
	res := methodNamed("Hub").Run(p, Options{MaxRounds: 1, Parallelism: 1})
	want := []float64{1, 2.0 / 3, 2.0 / 3}
	for s, w := range want {
		if math.Abs(res.Trust[s]-w) > 1e-12 {
			t.Errorf("Hub serial trust[%d] = %v, want %v", s, res.Trust[s], w)
		}
	}
	acc := methodNamed("AccuPr").Run(p, Options{InputTrust: []float64{0.9, 0.6, 0.6}, NFalse: 50, Parallelism: 1})
	if acc.Chosen[0] != 0 || p.Items[1].Buckets[acc.Chosen[1]].Rep.Num != 30 {
		t.Error("AccuPr golden choices diverge under Parallelism 1")
	}
}
