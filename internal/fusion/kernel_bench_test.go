package fusion

import (
	"fmt"
	"math/rand"
	"testing"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// Per-kernel microbenchmarks of the fold hot loops. The whole-Run
// benchmarks (bench_test.go) measure rounds end to end; these isolate
// the per-item kernels and the per-round table refills so a regression
// in one loop shows up directly instead of being averaged into a run.
// They join the CI benchpairs regex via the Kernel prefix, and
// ReportAllocs pins the steady-state zero-allocation property at the
// kernel level.

// newVoteSpace allocates a zeroed vote space for the problem.
func newVoteSpace(p *Problem) voteSpace {
	return voteSpace{flat: make([]float64, p.NumBuckets()), off: p.BucketOff}
}

// benchKernelProblem builds a mid-sized conflict-heavy problem (claims
// cluster into several buckets per item) without a testing.T, sized so a
// full kernel pass is measurable but a -benchtime=3x CI run stays cheap.
func benchKernelProblem() *Problem {
	rng := rand.New(rand.NewSource(9))
	ds := model.NewDataset("kernelbench")
	const numAttrs, numSources, numObjects = 4, 40, 150
	var attrs []model.AttrID
	for a := 0; a < numAttrs; a++ {
		attrs = append(attrs, ds.AddAttr(model.Attribute{
			Name: fmt.Sprintf("a%d", a), Kind: value.Number, Considered: true,
		}))
	}
	for s := 0; s < numSources; s++ {
		ds.AddSource(model.Source{Name: fmt.Sprintf("s%d", s)})
	}
	var claims []model.Claim
	for o := 0; o < numObjects; o++ {
		obj := ds.AddObject(model.Object{Key: fmt.Sprintf("o%d", o)})
		for _, a := range attrs {
			item := ds.ItemFor(obj, a)
			base := 100 + 17*float64(o%7)
			for s := 0; s < numSources; s++ {
				if rng.Float64() < 0.35 {
					continue
				}
				v := base
				if rng.Intn(10) < 3 {
					v = base * (1 + 0.03*float64(1+rng.Intn(5)))
				}
				claims = append(claims, model.Claim{
					Source: model.SourceID(s), Item: item,
					Val: value.Num(v), CopiedFrom: model.NoSource,
				})
			}
		}
	}
	snap := model.NewSnapshot(0, "bench", len(ds.Items), claims)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.01, snap)
	return Build(ds, snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
}

// benchTrust returns a deterministic non-uniform trust vector in (0, 1).
func benchTrust(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	t := make([]float64, n)
	for i := range t {
		t[i] = 0.05 + 0.9*rng.Float64()
	}
	return t
}

// BenchmarkKernelAccuTableUpdate measures one per-round refill of the
// ACCU log-odds table — the work that replaced a log per claim.
func BenchmarkKernelAccuTableUpdate(b *testing.B) {
	p := benchKernelProblem()
	n := len(p.SourceIDs)
	opts := Options{}.withDefaults()
	tab := newAccuTables(n, 0, opts, accuConfig{})
	at := &accuTrust{global: benchTrust(n)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.update(at)
	}
}

// benchAccuPosteriorPass runs one full posterior phase (all items) with
// the given config — the dominant per-round cost of the ACCU family.
func benchAccuPosteriorPass(b *testing.B, cfg accuConfig) {
	p := benchKernelProblem()
	n := len(p.SourceIDs)
	opts := Options{}.withDefaults()
	tab := newAccuTables(n, 0, opts, cfg)
	tab.update(&accuTrust{global: benchTrust(n)})
	var pop *popTable
	if cfg.popularity {
		pop = newPopTable(p)
	}
	probs := newProbRows(p)
	tmp := make([]float64, p.MaxBuckets())
	lo := tab.row(0)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := range p.Items {
			var popLg, popCnt []float64
			if pop != nil {
				popLg, popCnt = pop.rows(i)
			}
			accuPosterior(p, i, opts, cfg, lo, popLg, popCnt, nil, probs[i], tmp)
		}
	}
}

func BenchmarkKernelAccuPosteriorPlain(b *testing.B) {
	benchAccuPosteriorPass(b, accuConfig{})
}

func BenchmarkKernelAccuPosteriorSim(b *testing.B) {
	benchAccuPosteriorPass(b, accuConfig{sim: true})
}

func BenchmarkKernelAccuPosteriorPop(b *testing.B) {
	benchAccuPosteriorPass(b, accuConfig{popularity: true})
}

// BenchmarkKernelPopTableBuild measures the once-per-run popularity
// pair-table construction PopAccu's rounds now amortise.
func BenchmarkKernelPopTableBuild(b *testing.B) {
	p := benchKernelProblem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newPopTable(p)
	}
}

// BenchmarkKernelTruthFinderConf measures one TRUTHFINDER confidence
// phase: per-round nlg table refill plus the per-item kernel.
func BenchmarkKernelTruthFinderConf(b *testing.B) {
	p := benchKernelProblem()
	n := len(p.SourceIDs)
	tau := benchTrust(n)
	nlg := make([]float64, n)
	votes := newVoteSpace(p)
	tmp := make([]float64, p.MaxBuckets())
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		tfLogTable(nlg, tau)
		for i := range p.Items {
			tfConfItem(&p.Items[i], p.Sim[i], nlg, votes.row(i), tmp)
		}
	}
}

// BenchmarkKernelCosineScore measures one COSINE scoring phase: cubic
// table refill plus the per-item kernel.
func BenchmarkKernelCosineScore(b *testing.B) {
	p := benchKernelProblem()
	n := len(p.SourceIDs)
	trust := benchTrust(n)
	cube := make([]float64, n)
	votes := newVoteSpace(p)
	tmp := make([]float64, p.MaxBuckets())
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		cosineCubeTable(cube, trust)
		for i := range p.Items {
			cosineScoreItem(&p.Items[i], cube, votes.row(i), tmp)
		}
	}
}

// BenchmarkKernelInvestRound measures one full INVEST round: shares
// refill, investment phase and payback fold.
func BenchmarkKernelInvestRound(b *testing.B) {
	p := benchKernelProblem()
	n := len(p.SourceIDs)
	trust := benchTrust(n)
	shares := make([]float64, n)
	next := make([]float64, n)
	votes := newVoteSpace(p)
	invested := newVoteSpace(p)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		investShares(shares, trust, p.ClaimsPerSource)
		for i := range p.Items {
			investItem(&p.Items[i], shares, votes.row(i), invested.row(i), false)
		}
		clear(next)
		for i := range p.Items {
			investFold(&p.Items[i], shares, votes.row(i), invested.row(i), next)
		}
	}
}

// BenchmarkKernelVoteMass measures the shared HUB/AVGLOG vote kernel
// pair (trust-mass scatter plus fold), the simplest fold shape.
func BenchmarkKernelVoteMass(b *testing.B) {
	p := benchKernelProblem()
	n := len(p.SourceIDs)
	trust := benchTrust(n)
	acc := make([]float64, n)
	votes := newVoteSpace(p)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := range p.Items {
			voteMassItem(&p.Items[i], trust, votes.row(i))
		}
		clear(acc)
		for i := range p.Items {
			voteMassFold(&p.Items[i], votes.row(i), acc)
		}
	}
}
