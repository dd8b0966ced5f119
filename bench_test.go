// Benchmarks regenerating every table and figure of the paper, one bench
// per exhibit (see DESIGN.md's per-experiment index). They run at the
// reduced QuickConfig scale so `go test -bench=.` stays tractable; use
// cmd/truthbench for paper-scale runs.
package truthdiscovery

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"truthdiscovery/internal/dist"
	"truthdiscovery/internal/experiments"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/loadgen"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/report"
	"truthdiscovery/internal/serve"
	"truthdiscovery/internal/store"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

// benchEnviron builds (once) a reduced-scale environment with both domains
// and their fusion problems materialised, so individual benches measure the
// experiment computation rather than world generation.
func benchEnviron(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.QuickConfig(1)
		benchEnv = experiments.NewEnv(cfg)
		for _, d := range benchEnv.Domains() {
			d.Problem()
			d.SampledAccuracy()
			d.SampledAttrAccuracy()
		}
	})
	return benchEnv
}

func benchExperiment(b *testing.B, id string) {
	env := benchEnviron(b)
	x, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep *report.Report
	for i := 0; i < b.N; i++ {
		rep = x.Run(env)
	}
	if rep == nil || rep.ID != id {
		b.Fatalf("bad report for %s", id)
	}
}

// Section 2-3: the data study.

func BenchmarkTable1Overview(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkTable2Attributes(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkFigure1AttributeCoverage(b *testing.B) { benchExperiment(b, "figure1") }
func BenchmarkFigure2ObjectRedundancy(b *testing.B)  { benchExperiment(b, "figure2") }
func BenchmarkFigure3ItemRedundancy(b *testing.B)    { benchExperiment(b, "figure3") }
func BenchmarkTable3Inconsistency(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkFigure4Distributions(b *testing.B)     { benchExperiment(b, "figure4") }
func BenchmarkFigure5Anecdote(b *testing.B)          { benchExperiment(b, "figure5") }
func BenchmarkFigure6Reasons(b *testing.B)           { benchExperiment(b, "figure6") }
func BenchmarkFigure7Dominance(b *testing.B)         { benchExperiment(b, "figure7") }
func BenchmarkTable4Authorities(b *testing.B)        { benchExperiment(b, "table4") }
func BenchmarkFigure8SourceAccuracy(b *testing.B)    { benchExperiment(b, "figure8") }
func BenchmarkTable5Copying(b *testing.B)            { benchExperiment(b, "table5") }

// Section 4: fusion.

func BenchmarkTable6FeatureMatrix(b *testing.B)     { benchExperiment(b, "table6") }
func BenchmarkTable7Fusion(b *testing.B)            { benchExperiment(b, "table7") }
func BenchmarkFigure9RecallCurve(b *testing.B)      { benchExperiment(b, "figure9") }
func BenchmarkFigure10PrecVsDominance(b *testing.B) { benchExperiment(b, "figure10") }
func BenchmarkTable8Pairwise(b *testing.B)          { benchExperiment(b, "table8") }
func BenchmarkFigure11ErrorAnalysis(b *testing.B)   { benchExperiment(b, "figure11") }
func BenchmarkFigure12Efficiency(b *testing.B)      { benchExperiment(b, "figure12") }
func BenchmarkTable9OverTime(b *testing.B)          { benchExperiment(b, "table9") }
func BenchmarkAblationAccuCopy(b *testing.B)        { benchExperiment(b, "accucopy-ablation") }
func BenchmarkAblationTolerance(b *testing.B)       { benchExperiment(b, "tolerance-sweep") }

// Per-method microbenches on the Stock problem (the paper's Figure 12 axis).

func benchMethod(b *testing.B, name string) {
	env := benchEnviron(b)
	d := env.Stock()
	p := d.Problem()
	m, ok := fusion.ByName(name)
	if !ok {
		b.Fatalf("unknown method %s", name)
	}
	opts := d.FusionOptions(name, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := m.Run(p, opts)
		if len(res.Chosen) != len(p.Items) {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkMethodVote(b *testing.B)           { benchMethod(b, "Vote") }
func BenchmarkMethodHub(b *testing.B)            { benchMethod(b, "Hub") }
func BenchmarkMethodAvgLog(b *testing.B)         { benchMethod(b, "AvgLog") }
func BenchmarkMethodInvest(b *testing.B)         { benchMethod(b, "Invest") }
func BenchmarkMethodPooledInvest(b *testing.B)   { benchMethod(b, "PooledInvest") }
func BenchmarkMethodCosine(b *testing.B)         { benchMethod(b, "Cosine") }
func BenchmarkMethodTwoEstimates(b *testing.B)   { benchMethod(b, "2-Estimates") }
func BenchmarkMethodThreeEstimates(b *testing.B) { benchMethod(b, "3-Estimates") }
func BenchmarkMethodTruthFinder(b *testing.B)    { benchMethod(b, "TruthFinder") }
func BenchmarkMethodAccuPr(b *testing.B)         { benchMethod(b, "AccuPr") }
func BenchmarkMethodPopAccu(b *testing.B)        { benchMethod(b, "PopAccu") }
func BenchmarkMethodAccuSim(b *testing.B)        { benchMethod(b, "AccuSim") }
func BenchmarkMethodAccuFormat(b *testing.B)     { benchMethod(b, "AccuFormat") }
func BenchmarkMethodAccuSimAttr(b *testing.B)    { benchMethod(b, "AccuSimAttr") }
func BenchmarkMethodAccuFormatAttr(b *testing.B) { benchMethod(b, "AccuFormatAttr") }
func BenchmarkMethodAccuCopy(b *testing.B)       { benchMethod(b, "AccuCopy") }

// Substrate microbenches: generation and problem construction.

func BenchmarkStockSnapshotGeneration(b *testing.B) {
	sim := SimulateStock(StockOptions{Seed: 1, Stocks: 200, Days: 1, GoldSymbols: 50})
	_ = sim
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := SimulateStock(StockOptions{Seed: 1, Stocks: 200, Days: 1, GoldSymbols: 50})
		if s.Dataset.Snapshots[0].NumClaims() == 0 {
			b.Fatal("no claims")
		}
	}
}

func BenchmarkFlightSnapshotGeneration(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := SimulateFlight(FlightOptions{Seed: 1, Flights: 300, Days: 1, GoldFlights: 60})
		if s.Dataset.Snapshots[0].NumClaims() == 0 {
			b.Fatal("no claims")
		}
	}
}

func BenchmarkProblemBuild(b *testing.B) {
	env := benchEnviron(b)
	d := env.Stock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := fusion.Build(d.DS, d.Snap, d.Fused,
			fusion.BuildOptions{NeedSimilarity: true, NeedFormat: true})
		if len(p.Items) == 0 {
			b.Fatal("empty problem")
		}
	}
}

// Section 5 extension benches.

func BenchmarkExtensionEnsemble(b *testing.B)        { benchExperiment(b, "ensemble") }
func BenchmarkExtensionSeedTrust(b *testing.B)       { benchExperiment(b, "seed-trust") }
func BenchmarkExtensionCategoryTrust(b *testing.B)   { benchExperiment(b, "category-trust") }
func BenchmarkExtensionSourceSelection(b *testing.B) { benchExperiment(b, "source-selection") }

func BenchmarkMethodEnsemble(b *testing.B) {
	env := benchEnviron(b)
	d := env.Stock()
	p := d.Problem()
	m := fusion.Ensemble()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := m.Run(p, fusion.Options{}); len(res.Chosen) != len(p.Items) {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkSeedTrustComputation(b *testing.B) {
	env := benchEnviron(b)
	p := env.Stock().Problem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if seed := fusion.SeedTrust(p, 0.75); len(seed) != len(p.SourceIDs) {
			b.Fatal("bad seed")
		}
	}
}

// Serial-vs-parallel benchmarks for the work-stealing execution layer
// (internal/parallel). Run the pairs with -benchtime and GOMAXPROCS >= 4
// to measure the wall-clock speedup; results are bit-identical between
// the two paths by construction (see parallel_equiv_test.go).

// benchCopyDetect times one full copy-detection pass (observation
// counting plus pairwise Bayesian scoring) on the Stock problem.
func benchCopyDetect(b *testing.B, parallelism int) {
	env := benchEnviron(b)
	d := env.Stock()
	p := d.Problem()
	acc := d.SampledAccuracy()
	chosen := make([]int32, len(p.Items))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep := fusion.DebugDetect(p, chosen, acc, fusion.Options{Parallelism: parallelism})
		if len(dep) != len(p.SourceIDs) {
			b.Fatal("bad dependence matrix")
		}
	}
}

func BenchmarkCopyDetectSerial(b *testing.B)   { benchCopyDetect(b, 1) }
func BenchmarkCopyDetectParallel(b *testing.B) { benchCopyDetect(b, 0) }

// benchFusionIteration times the heaviest non-copy method end to end.
func benchFusionIteration(b *testing.B, parallelism int) {
	env := benchEnviron(b)
	d := env.Stock()
	p := d.Problem()
	m, _ := fusion.ByName("AccuFormatAttr")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := m.Run(p, fusion.Options{Parallelism: parallelism})
		if len(res.Chosen) != len(p.Items) {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFusionAccuFormatAttrSerial(b *testing.B)   { benchFusionIteration(b, 1) }
func BenchmarkFusionAccuFormatAttrParallel(b *testing.B) { benchFusionIteration(b, 0) }

// benchAccuCopyRun times ACCUCOPY, whose rounds interleave the parallel
// posterior phase with the parallel detector.
func benchAccuCopyRun(b *testing.B, parallelism int) {
	env := benchEnviron(b)
	d := env.Stock()
	p := d.Problem()
	m, _ := fusion.ByName("AccuCopy")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := m.Run(p, fusion.Options{Parallelism: parallelism})
		if len(res.Chosen) != len(p.Items) {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkAccuCopySerial(b *testing.B)   { benchAccuCopyRun(b, 1) }
func BenchmarkAccuCopyParallel(b *testing.B) { benchAccuCopyRun(b, 0) }

// regenEnvs caches one environment per parallelism level, so the Serial
// variant is serial all the way down: Config.Parallelism rides along on
// the domains and is stamped into every inner fusion/copy-detection call
// (a shared Parallelism-0 env would fan those out GOMAXPROCS-wide even
// in the "serial" run).
var (
	regenMu   sync.Mutex
	regenEnvs = map[int]*experiments.Env{}
)

func regenEnviron(parallelism int) *experiments.Env {
	regenMu.Lock()
	defer regenMu.Unlock()
	env, ok := regenEnvs[parallelism]
	if !ok {
		cfg := experiments.QuickConfig(1)
		cfg.Parallelism = parallelism
		env = experiments.NewEnv(cfg)
		for _, d := range env.Domains() {
			d.Problem()
			d.SampledAccuracy()
			d.SampledAttrAccuracy()
		}
		regenEnvs[parallelism] = env
	}
	return env
}

// benchRegenerate times multi-experiment regeneration — the fan-out
// cmd/truthbench uses — over a fusion-heavy subset.
func benchRegenerate(b *testing.B, parallelism int) {
	env := regenEnviron(parallelism)
	ids := []string{"table7", "figure10", "table8", "figure12", "table5", "figure7"}
	var xs []experiments.Experiment
	for _, id := range ids {
		x, err := experiments.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		xs = append(xs, x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps := experiments.RunAll(env, xs, parallelism)
		if len(reps) != len(ids) {
			b.Fatal("missing reports")
		}
	}
}

func BenchmarkRegenerateExperimentsSerial(b *testing.B)   { benchRegenerate(b, 1) }
func BenchmarkRegenerateExperimentsParallel(b *testing.B) { benchRegenerate(b, 0) }

// Full-vs-incremental benchmarks for the streaming fusion engine. The
// world is a simulated multi-day collection with small daily churn (~5% of
// items touched per day — the regime the streaming north-star targets; the
// paper's Stock collection churns >90% daily and is covered by the
// `incremental` experiment instead). The Full variant re-fuses every day's
// snapshot from scratch; the Delta variant advances a FusedState over the
// day's claim delta — including the cost of materialising the snapshot
// from the delta, which the Full variant gets for free. Results are
// bit-identical between the two paths by construction (see
// incremental_test.go); the dirty-item share is reported per run.

const churnDays = 6

var (
	churnOnce   sync.Once
	churnDS     *Dataset
	churnSnaps  []*Snapshot
	churnDeltas []*Delta
)

// churnWorld builds (once) a 30-source, 4000-item world where each day
// changes ~0.45% of claims, retracting and adding a few — item-level churn
// around 5%/day.
func churnWorld(b *testing.B) (*Dataset, []*Snapshot, []*Delta) {
	b.Helper()
	churnOnce.Do(func() {
		rng := rand.New(rand.NewSource(9))
		bld := NewBuilder("churn")
		const numAttrs, numSources, numObjects = 4, 30, 1000
		var attrs []AttrID
		for a := 0; a < numAttrs; a++ {
			attrs = append(attrs, bld.Attribute(fmt.Sprintf("a%d", a), Number))
		}
		var sources []SourceID
		for s := 0; s < numSources; s++ {
			sources = append(sources, bld.Source(fmt.Sprintf("s%d", s)))
		}
		var objects []ObjectID
		for o := 0; o < numObjects; o++ {
			objects = append(objects, bld.Object(fmt.Sprintf("o%d", o)))
		}

		mkVal := func(item int) Value {
			base := 100 + 13*float64(item%11)
			switch rng.Intn(12) {
			case 0, 1:
				return truthdiscoveryNum(base * (1 + 0.04*float64(1+rng.Intn(4))))
			case 2:
				return truthdiscoveryNumGran(base, 10)
			default:
				return truthdiscoveryNum(base)
			}
		}

		// claimAt[obj][attr][src] — the live value, zero Value when absent.
		type cell = Value
		claimAt := make([][][]cell, numObjects)
		for o := range claimAt {
			claimAt[o] = make([][]cell, numAttrs)
			for a := range claimAt[o] {
				claimAt[o][a] = make([]cell, numSources)
				for s := range claimAt[o][a] {
					if rng.Float64() < 0.4 {
						claimAt[o][a][s] = mkVal(o*numAttrs + a)
					}
				}
			}
		}
		record := func() {
			for o, obj := range objects {
				for a, attr := range attrs {
					for s, src := range sources {
						if !claimAt[o][a][s].IsZero() {
							bld.ClaimValue(src, obj, attr, claimAt[o][a][s])
						}
					}
				}
			}
		}
		record()
		bld.EndDay("")
		for d := 1; d < churnDays; d++ {
			for o := range claimAt {
				for a := range claimAt[o] {
					for s := range claimAt[o][a] {
						if !claimAt[o][a][s].IsZero() {
							switch {
							case rng.Float64() < 0.0045: // reprice
								claimAt[o][a][s] = mkVal(o*len(claimAt[o]) + a)
							case rng.Float64() < 0.0005: // retract
								claimAt[o][a][s] = Value{}
							}
						} else if rng.Float64() < 0.0004 { // new claim
							claimAt[o][a][s] = mkVal(o*len(claimAt[o]) + a)
						}
					}
				}
			}
			record()
			bld.EndDay("")
		}
		ds, day0, deltas, err := bld.BuildStream()
		if err != nil {
			panic(err)
		}
		churnDS = ds
		churnSnaps = []*Snapshot{day0}
		snap := day0
		for _, dl := range deltas {
			next, err := snap.Apply(dl)
			if err != nil {
				panic(err)
			}
			churnSnaps = append(churnSnaps, next)
			snap = next
		}
		churnDeltas = deltas
	})
	return churnDS, churnSnaps, churnDeltas
}

// truthdiscoveryNum / truthdiscoveryNumGran keep the bench file free of a
// direct internal/value import.
func truthdiscoveryNum(x float64) Value        { return Value{Kind: Number, Num: x} }
func truthdiscoveryNumGran(x, g float64) Value { return Value{Kind: Number, Num: x, Gran: g} }

// benchIncrementalFull re-fuses every day's snapshot from scratch.
func benchIncrementalFull(b *testing.B, method string) {
	ds, snaps, _ := churnWorld(b)
	m, ok := fusion.ByName(method)
	if !ok {
		b.Fatalf("unknown method %s", method)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, snap := range snaps {
			p := fusion.Build(ds, snap, nil, m.Needs())
			if res := m.Run(p, fusion.Options{}); len(res.Chosen) != len(p.Items) {
				b.Fatal("bad result")
			}
		}
	}
}

// benchIncrementalDelta advances a one-shard (flat layout) fused state
// over the delta stream, paying snapshot materialisation (Apply) along
// the way.
func benchIncrementalDelta(b *testing.B, method string) {
	ds, snaps, deltas := churnWorld(b)
	m, ok := fusion.ByName(method)
	if !ok {
		b.Fatalf("unknown method %s", method)
	}
	var dirty, total int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := fusion.NewState(ds, snaps[0], nil, model.RangeShards(1, snaps[0].NumItems()), m, fusion.Options{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, dl := range deltas {
			next, stats, err := st.Advance(ds, dl, fusion.Options{}, fusion.IncrementalOptions{})
			if err != nil {
				b.Fatal(err)
			}
			dirty += stats.DirtyItems
			total += stats.TotalItems
			st = next
		}
	}
	b.StopTimer()
	if total > 0 {
		b.ReportMetric(100*float64(dirty)/float64(total), "dirty%/day")
	}
}

func BenchmarkIncrementalVoteFull(b *testing.B)           { benchIncrementalFull(b, "Vote") }
func BenchmarkIncrementalVoteDelta(b *testing.B)          { benchIncrementalDelta(b, "Vote") }
func BenchmarkIncrementalAccuPrFull(b *testing.B)         { benchIncrementalFull(b, "AccuPr") }
func BenchmarkIncrementalAccuPrDelta(b *testing.B)        { benchIncrementalDelta(b, "AccuPr") }
func BenchmarkIncrementalAccuFormatAttrFull(b *testing.B) { benchIncrementalFull(b, "AccuFormatAttr") }
func BenchmarkIncrementalAccuFormatAttrDelta(b *testing.B) {
	benchIncrementalDelta(b, "AccuFormatAttr")
}

// BenchmarkIncrementalExperiment times the registry exhibit that threads
// day-over-day deltas through the Stock/Flight regeneration.
func BenchmarkIncrementalExperiment(b *testing.B) { benchExperiment(b, "incremental") }

// Sharded-vs-flat benchmarks for the sharded fusion engine. The
// ShardedFusion pair runs the heaviest non-copy method on the Stock
// problem flat (one shard) and over eight shards; the Budget variant
// additionally caps residency at one shard arena, reporting the peak
// resident arena bytes — the memory ceiling that drops with the shard
// count while the answers stay bit-identical (sharded_equiv_test.go).

// benchShardedFusion runs AccuFormatAttr end to end over the given
// shard count and residency bound.
func benchShardedFusion(b *testing.B, shards, maxResident int) {
	env := benchEnviron(b)
	d := env.Stock()
	m, _ := fusion.ByName("AccuFormatAttr")
	spec := model.RangeShards(shards, d.Snap.NumItems())
	var peak int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, sp, err := fusion.FuseSharded(d.DS, d.Snap, d.Fused, spec, m, fusion.Options{}, maxResident)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Chosen) != sp.NumItems() {
			b.Fatal("bad result")
		}
		peak = sp.PeakResidentBytes()
	}
	b.StopTimer()
	b.ReportMetric(float64(peak), "peak-arena-B")
}

func BenchmarkShardedFusionFlat(b *testing.B)   { benchShardedFusion(b, 1, 0) }
func BenchmarkShardedFusionEight(b *testing.B)  { benchShardedFusion(b, 8, 0) }
func BenchmarkShardedFusionBudget(b *testing.B) { benchShardedFusion(b, 8, 1) }

// The ShardedIncremental pair composes sharding with the delta stream
// on the low-churn world, both sides sharded so the pair isolates the
// delta-routing win: Full re-fuses every day's snapshot from scratch
// over the shard set; Delta advances an eight-shard State over each
// day's split deltas (per-shard dirty worklists, one trust merge per
// day).
// The flat-engine counterpart is the BenchmarkIncrementalAccuPr* pair.
func BenchmarkShardedIncrementalFull(b *testing.B) {
	ds, snaps, _ := churnWorld(b)
	m, _ := fusion.ByName("AccuPr")
	spec := model.RangeShards(8, snaps[0].NumItems())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, snap := range snaps {
			res, sp, err := fusion.FuseSharded(ds, snap, nil, spec, m, fusion.Options{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Chosen) != sp.NumItems() {
				b.Fatal("bad result")
			}
		}
	}
}

func BenchmarkShardedIncrementalDelta(b *testing.B) {
	ds, snaps, deltas := churnWorld(b)
	m, _ := fusion.ByName("AccuPr")
	spec := model.RangeShards(8, snaps[0].NumItems())
	var dirty, total int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := fusion.NewState(ds, snaps[0], nil, spec, m, fusion.Options{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, dl := range deltas {
			next, stats, err := st.Advance(ds, dl, fusion.Options{}, fusion.IncrementalOptions{})
			if err != nil {
				b.Fatal(err)
			}
			dirty += stats.DirtyItems
			total += stats.TotalItems
			st = next
		}
	}
	b.StopTimer()
	if total > 0 {
		b.ReportMetric(100*float64(dirty)/float64(total), "dirty%/day")
	}
}

// BenchmarkShardedWarmAdvance runs BenchmarkShardedIncrementalDelta's
// stream at a 0.05 trust tolerance, so the planner takes the dirty-only
// warm path over the shard set: clean posterior rows carry over, only
// rebuilt items are rescored. warm% reports how many advances ran warm.
func BenchmarkShardedWarmAdvance(b *testing.B) {
	ds, snaps, deltas := churnWorld(b)
	m, _ := fusion.ByName("AccuPr")
	spec := model.RangeShards(8, snaps[0].NumItems())
	inc := fusion.IncrementalOptions{TrustTolerance: 0.05, Planner: &fusion.Planner{Mode: fusion.PlannerAuto}}
	var warm, advances int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := fusion.NewState(ds, snaps[0], nil, spec, m, fusion.Options{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, dl := range deltas {
			next, stats, err := st.Advance(ds, dl, fusion.Options{}, inc)
			if err != nil {
				b.Fatal(err)
			}
			if stats.Mode == fusion.ModeWarm {
				warm++
			}
			advances++
			st = next
		}
	}
	b.StopTimer()
	if advances > 0 {
		b.ReportMetric(100*float64(warm)/float64(advances), "warm%")
	}
}

// Planner benchmarks: the adaptive planner against a forced-full
// baseline at both ends of the churn spectrum. On the low-churn world
// (~5% of items/day) the auto plan takes the dirty-only warm path and
// must beat re-running the full iteration; on the Stock stream (>90% of
// items reprice daily) the churn ceiling routes auto to the full path
// and the pair must match. Each bench reports the measured churn and
// the warm-path share so the decision is visible in the artifact.

// benchPlannedAdvance advances a flat AccuPr state over the delta
// stream at a 0.05 trust tolerance under the given planner.
func benchPlannedAdvance(b *testing.B, ds *Dataset, snaps []*Snapshot, deltas []*Delta,
	fused []SourceID, planner *Planner) {
	b.Helper()
	opts := FuseOptions{Sources: fused, TrustTolerance: 0.05, Planner: planner}
	var churn float64
	var warm, advances int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := FuseStateful(ds, snaps[0], "AccuPr", opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, dl := range deltas {
			_, st, err = FuseIncremental(ds, st, dl, "AccuPr", opts)
			if err != nil {
				b.Fatal(err)
			}
			if st.Stats.Plan == nil {
				b.Fatal("advance recorded no plan")
			}
			churn += st.Stats.Plan.Features.ChurnFraction
			if st.Stats.Mode == ModeWarm {
				warm++
			}
			advances++
		}
	}
	b.StopTimer()
	if advances > 0 {
		b.ReportMetric(100*churn/float64(advances), "churn%/day")
		b.ReportMetric(100*float64(warm)/float64(advances), "warm%")
	}
}

func BenchmarkPlannedAdvanceLowChurn(b *testing.B) {
	ds, snaps, deltas := churnWorld(b)
	benchPlannedAdvance(b, ds, snaps, deltas, nil, &Planner{Mode: PlannerAuto})
}

func BenchmarkPlannedAdvanceLowChurnForcedFull(b *testing.B) {
	ds, snaps, deltas := churnWorld(b)
	benchPlannedAdvance(b, ds, snaps, deltas, nil,
		&Planner{Mode: PlannerForced, ForcePath: ModeFull})
}

// plannedStockWorld builds (once) the Stock stream for the high-churn
// pair, where nearly every item reprices daily.
var (
	plannedStockOnce   sync.Once
	plannedStockDS     *Dataset
	plannedStockSnaps  []*Snapshot
	plannedStockDeltas []*Delta
	plannedStockFused  []SourceID
)

func plannedStockWorld(b *testing.B) (*Dataset, []*Snapshot, []*Delta, []SourceID) {
	b.Helper()
	plannedStockOnce.Do(func() {
		w := streamWorlds(b, churnDays)[0] // Stock
		plannedStockDS, plannedStockSnaps, plannedStockFused = w.ds, w.snaps, w.fused
		for d := 1; d < len(w.snaps); d++ {
			dl, err := w.snaps[d-1].Diff(w.snaps[d])
			if err != nil {
				panic(err)
			}
			plannedStockDeltas = append(plannedStockDeltas, dl)
		}
	})
	return plannedStockDS, plannedStockSnaps, plannedStockDeltas, plannedStockFused
}

func BenchmarkPlannedAdvanceHighChurn(b *testing.B) {
	ds, snaps, deltas, fused := plannedStockWorld(b)
	benchPlannedAdvance(b, ds, snaps, deltas, fused, &Planner{Mode: PlannerAuto})
}

func BenchmarkPlannedAdvanceHighChurnForcedFull(b *testing.B) {
	ds, snaps, deltas, fused := plannedStockWorld(b)
	benchPlannedAdvance(b, ds, snaps, deltas, fused,
		&Planner{Mode: PlannerForced, ForcePath: ModeFull})
}

// The UpdateProblem pair times problem maintenance alone — the stage of
// an advance between Snapshot.Apply and the round loop — across day 0→1
// from a cold problem with AccuPr's needs: HighChurn on the Stock stream,
// where ~94% of the items reprice and the problem is re-laid into one
// arena, LowChurn on the churn world, where ~3.5% are rebuilt and the
// rest stay shared.
func benchUpdateProblem(b *testing.B, ds *Dataset, snaps []*Snapshot, deltas []*Delta, fused []SourceID) {
	b.Helper()
	accuPr, _ := fusion.ByName("AccuPr")
	needs := accuPr.Needs()
	prev := fusion.Build(ds, snaps[0], fused, needs)
	dirty := deltas[0].DirtyItems()
	var rebuilt, items int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, rb := fusion.UpdateProblem(ds, snaps[1], prev, dirty, needs)
		rebuilt, items = len(rb), len(p.Items)
	}
	b.StopTimer()
	b.ReportMetric(100*float64(rebuilt)/float64(items), "dirty-%")
}

func BenchmarkUpdateProblemHighChurn(b *testing.B) {
	ds, snaps, deltas, fused := plannedStockWorld(b)
	benchUpdateProblem(b, ds, snaps, deltas, fused)
}

func BenchmarkUpdateProblemLowChurn(b *testing.B) {
	ds, snaps, deltas := churnWorld(b)
	benchUpdateProblem(b, ds, snaps, deltas, nil)
}

// Serving-layer benchmarks (the "millions of users" axis): handler
// throughput on point queries against the served Stock world, and the
// store's persist/load round trip. Both are in the benchpairs gate;
// ServeAnswers additionally reports requests/sec in the bench artifact.

var (
	serveBenchOnce    sync.Once
	serveBenchHandler http.Handler
	serveBenchKeys    []string
	serveBenchView    *serve.View
)

// serveBenchWorld publishes (once) the fused Stock world behind a server
// and collects the object keys for point queries.
func serveBenchWorld(b *testing.B) (http.Handler, []string, *serve.View) {
	env := benchEnviron(b)
	d := env.Stock()
	serveBenchOnce.Do(func() {
		eng, err := serve.NewEngine(d.DS, d.Snap, d.Fused, "AccuPr", serve.EngineOptions{})
		if err != nil {
			panic(err)
		}
		srv := serve.NewServer()
		r := serve.NewRefresher(d.DS, eng, srv, nil, "bench", d.Snap.Day, d.Snap.Label, fusion.Options{})
		if _, err := r.Publish(); err != nil {
			panic(err)
		}
		serveBenchHandler = srv.Handler()
		serveBenchView = srv.View()
		seen := make(map[string]bool)
		for i := range serveBenchView.Answers {
			key := serveBenchView.Answers[i].ObjectKey
			if !seen[key] {
				seen[key] = true
				serveBenchKeys = append(serveBenchKeys, key)
			}
		}
	})
	return serveBenchHandler, serveBenchKeys, serveBenchView
}

// BenchmarkServeAnswers measures the point-query path — GET
// /answers/{object} — end to end through the handler (routing, view
// load, JSON encoding), the request shape a per-object cache would see.
func BenchmarkServeAnswers(b *testing.B) {
	h, keys, _ := serveBenchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/answers/"+keys[i%len(keys)], nil)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeAnswersParallel is the same query mix driven from all
// procs at once — the lock-free read path under contention.
func BenchmarkServeAnswersParallel(b *testing.B) {
	h, keys, _ := serveBenchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, "/v1/answers/"+keys[i%len(keys)], nil)
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				panic(rec.Code)
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeTable measures GET /v1/answers on a view whose table
// body is already stored: a lookup plus the write of the whole table.
func BenchmarkServeTable(b *testing.B) {
	h, _, _ := serveBenchWorld(b)
	serveTable(b, h) // the first read renders the body
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveTable(b, h)
	}
}

// BenchmarkServeTableCold reads the table of a fresh view each
// iteration, so every read pays the one render plus the write. Building
// and swapping in the view stays outside the timer.
func BenchmarkServeTableCold(b *testing.B) {
	_, _, view := serveBenchWorld(b)
	srv := serve.NewServer()
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv.Swap(serve.NewView(*view))
		b.StartTimer()
		serveTable(b, h)
	}
}

func serveTable(b *testing.B, h http.Handler) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/answers", nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d", rec.Code)
	}
}

// benchServeLoad drives the loadgen harness — real TCP connections via
// httptest.Server, not in-process ServeHTTP — over the served Stock
// world, and reports the latency percentiles and req/s that join the
// benchdiff gate (p50-ns and p99-ns normalised like ns/op, req/s
// inverted; p999-ns recorded ungated). Each b.N iteration is a burst of
// requests so the percentiles have a real sample population even at the
// CI benchtime of 3 iterations.
func benchServeLoad(b *testing.B, mix func(objects []string, etag string) func(int, *rand.Rand) loadgen.Op) {
	h, keys, view := serveBenchWorld(b)
	ts := httptest.NewServer(h)
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var last *loadgen.Result
	for i := 0; i < b.N; i++ {
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:  ts.URL,
			Requests: 500,
			Workers:  8,
			Seed:     int64(i + 1),
			Mix:      mix(keys, view.ETag()),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(last.P50.Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(last.P99.Nanoseconds()), "p99-ns")
	b.ReportMetric(float64(last.P999.Nanoseconds()), "p999-ns")
	b.ReportMetric(last.Throughput, "req/s")
}

// BenchmarkServeLoadRead is the harness on pure point reads — the cache-
// miss body-encoding path.
func BenchmarkServeLoadRead(b *testing.B) {
	benchServeLoad(b, func(objects []string, _ string) func(int, *rand.Rand) loadgen.Op {
		return func(_ int, r *rand.Rand) loadgen.Op {
			return loadgen.Op{Method: http.MethodGet, Path: "/v1/answers/" + objects[r.Intn(len(objects))]}
		}
	})
}

// BenchmarkServeLoadRevalidate is the same reads carrying If-None-Match
// with the current ETag: every response is a 304 and the handler never
// encodes a body — the steady state of a well-behaved caching client.
func BenchmarkServeLoadRevalidate(b *testing.B) {
	benchServeLoad(b, func(objects []string, etag string) func(int, *rand.Rand) loadgen.Op {
		return func(_ int, r *rand.Rand) loadgen.Op {
			return loadgen.Op{
				Method: http.MethodGet,
				Path:   "/v1/answers/" + objects[r.Intn(len(objects))],
				Header: map[string]string{"If-None-Match": etag},
			}
		}
	})
}

// BenchmarkStoreRoundTrip measures one full persist → load cycle of the
// fused Stock run (encode, CRC, atomic rename; read, verify, decode).
func BenchmarkStoreRoundTrip(b *testing.B) {
	_, _, view := serveBenchWorld(b)
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	run := view.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := st.Save(run)
		if err != nil {
			b.Fatal(err)
		}
		loaded, err := st.Load(v)
		if err != nil {
			b.Fatal(err)
		}
		if len(loaded.Answers) != len(run.Answers) {
			b.Fatal("bad round trip")
		}
		b.StopTimer()
		if err := st.Prune(1); err != nil { // keep the dir small at any b.N
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// --- Distributed fleet benchmarks ------------------------------------
//
// A two-worker fleet over loopback HTTP: the coordinator's full fusion
// run (broadcast + partial folds + publish protocol overhead) and the
// scatter-gather read path, both in the benchpairs gate so the
// distributed layer's trajectory is tracked like every other pair.

var (
	distBenchOnce    sync.Once
	distBenchMethod  fusion.Method
	distBenchClients []*dist.PeerClient
	distBenchPeers   []fusion.DistPeer
	distBenchCPS     []int
	distBenchN       int
	distBenchAttrs   int
	routedBenchFront http.Handler
	routedBenchETag  string
)

// distBenchWorld boots (once) two shard workers behind real listeners,
// fronts them with the router, and publishes version 1 across the fleet.
func distBenchWorld(b *testing.B) {
	env := benchEnviron(b)
	d := env.Stock()
	distBenchOnce.Do(func() {
		m, _ := fusion.ByName("AccuPr")
		distBenchMethod = m
		spec := model.RangeShards(4, len(d.DS.Items))
		bounds := []int{0, 2, 4}
		addrs := make([]string, 2)
		for w := 0; w < 2; w++ {
			wk, err := dist.NewWorker(dist.WorkerConfig{
				DS: d.DS, Snap: d.Snap, Spec: spec,
				Lo: bounds[w], Hi: bounds[w+1], Index: w,
				Method: m, Fingerprint: "bench-dist",
			})
			if err != nil {
				panic(err)
			}
			// The fleet lives for the whole bench process, like the
			// flat serveBenchWorld handler.
			ts := httptest.NewServer(wk.Handler())
			addrs[w] = ts.URL
			distBenchClients = append(distBenchClients, dist.NewPeerClient(ts.URL))
			distBenchPeers = append(distBenchPeers, distBenchClients[w])
		}
		rt, err := serve.NewRouter(d.DS, spec, bounds, addrs)
		if err != nil {
			panic(err)
		}
		coord := dist.NewCoordinator(dist.CoordinatorConfig{
			DS: d.DS, Spec: spec, Method: m, Fingerprint: "bench-dist",
			Base: d.Snap, Srv: rt.Server(), OnPublish: rt.SetWorkerVersion,
		}, distBenchClients)
		if err := coord.Init(); err != nil {
			panic(err)
		}
		if _, err := coord.RunAndPublish(); err != nil {
			panic(err)
		}
		distBenchCPS = make([]int, len(d.DS.Sources))
		for _, c := range distBenchClients {
			desc, err := c.Describe()
			if err != nil {
				panic(err)
			}
			for s, n := range desc.CPS {
				distBenchCPS[s] += n
			}
		}
		distBenchN = len(fusion.DefaultRoster(d.DS))
		distBenchAttrs = len(d.DS.Attrs)
		routedBenchFront = rt.Handler()
		routedBenchETag = rt.Server().View().ETag()
	})
}

// BenchmarkDistributedFuse measures one full distributed fusion run —
// per-peer re-init, every round's trust broadcast and chained partial
// folds — over two worker processes' control planes on loopback HTTP.
func BenchmarkDistributedFuse(b *testing.B) {
	distBenchWorld(b)
	opts := fusion.Options{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range distBenchClients {
			if err := c.Init(distBenchCPS, opts); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := fusion.DistRun(distBenchMethod, opts, distBenchPeers, distBenchN, distBenchAttrs, distBenchCPS); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/s")
}

var (
	distApplyOnce   sync.Once
	distApplyClient *dist.PeerClient
	distApplyDeltas [2][]*model.Delta
	distApplyCount  int // applies so far: its parity picks the next delta
)

// BenchmarkDistributedApply measures one worker's /rpc/apply on the Stock
// world: a delta that reprices one claim on each of four items of the
// worker's one owned shard (as truthserved -workers lays a fleet out,
// one shard per worker), alternating with its inverse so every
// iteration advances the same claims. The worker is its own, so the
// distBenchWorld fleet stays at version 1 for the other benchmarks.
func BenchmarkDistributedApply(b *testing.B) {
	env := benchEnviron(b)
	d := env.Stock()
	distApplyOnce.Do(func() {
		n := d.Snap.NumItems()
		spec := model.RangeShards(2, n)
		m, _ := fusion.ByName("AccuPr")
		wk, err := dist.NewWorker(dist.WorkerConfig{
			DS: d.DS, Snap: d.Snap, Spec: spec, Lo: 0, Hi: 1,
			Method: m, Fingerprint: "bench-dist-apply",
		})
		if err != nil {
			panic(err)
		}
		// The worker lives for the whole bench process, like the fleet.
		ts := httptest.NewServer(wk.Handler())
		distApplyClient = dist.NewPeerClient(ts.URL)

		var claims []model.Claim
		last, changed := model.ItemID(-1), 0
		for _, c := range d.Snap.Claims {
			if changed < 4 && c.Item != last && spec.ShardOf(c.Item) == 0 && c.Val.Kind == Number {
				c.Val.Num *= 1.5
				last = c.Item
				changed++
			}
			claims = append(claims, c)
		}
		next := model.NewSnapshot(d.Snap.Day+1, "", n, claims)
		for i, pair := range [2][2]*model.Snapshot{{d.Snap, next}, {next, d.Snap}} {
			dl, err := pair[0].Diff(pair[1])
			if err != nil {
				panic(err)
			}
			split, err := dl.Split(spec)
			if err != nil {
				panic(err)
			}
			distApplyDeltas[i] = split[:1]
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distApplyClient.Apply(distApplyDeltas[distApplyCount%2]); err != nil {
			b.Fatal(err)
		}
		distApplyCount++
	}
}

// BenchmarkServeLoadRouted drives the loadgen harness against the
// scatter-gather front: every point read fans to the owning worker over
// real TCP, so the numbers include the router's fan-out hop — directly
// comparable to BenchmarkServeLoadRead's single-process path.
func BenchmarkServeLoadRouted(b *testing.B) {
	distBenchWorld(b)
	_, keys, _ := serveBenchWorld(b) // same Stock world: same object keys
	ts := httptest.NewServer(routedBenchFront)
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var last *loadgen.Result
	for i := 0; i < b.N; i++ {
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:  ts.URL,
			Requests: 500,
			Workers:  8,
			Seed:     int64(i + 1),
			Mix: func(_ int, r *rand.Rand) loadgen.Op {
				return loadgen.Op{Method: http.MethodGet, Path: "/v1/answers/" + keys[r.Intn(len(keys))]}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(last.P50.Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(last.P99.Nanoseconds()), "p99-ns")
	b.ReportMetric(float64(last.P999.Nanoseconds()), "p999-ns")
	b.ReportMetric(last.Throughput, "req/s")
}
