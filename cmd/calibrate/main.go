// Command calibrate prints the key Section 3 statistics of freshly generated
// Stock and Flight collections next to the paper's published values. It is
// the tuning loop used to calibrate the data generator.
package main

import (
	"flag"
	"fmt"
	"sort"

	"truthdiscovery/internal/datagen"
	"truthdiscovery/internal/gold"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/quality"
	"truthdiscovery/internal/stats"
	"truthdiscovery/internal/value"
)

func main() {
	seed := flag.Int64("seed", 1, "generator seed")
	domain := flag.String("domain", "both", "stock, flight, or both")
	flag.Parse()

	if *domain == "stock" || *domain == "both" {
		calibrateStock(*seed)
	}
	if *domain == "flight" || *domain == "both" {
		calibrateFlight(*seed)
	}
}

func calibrateStock(seed int64) {
	fmt.Println("=== STOCK ===")
	gen := datagen.NewStock(datagen.DefaultStockConfig(seed))
	ds := gen.Dataset()
	snap := gen.Snapshot(6) // the paper reports 2011-07-07
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(value.DefaultAlpha, snap)
	gld := gold.ForGenerated(gen, snap)

	fmt.Printf("claims=%d items=%d goldItems=%d localAttrs=%d globalAttrs=%d\n",
		snap.NumClaims(), len(ds.Items), gld.Len(), gen.LocalAttrCount(), len(ds.Attrs))

	red := quality.Redundancy(ds, snap, nil)
	fmt.Printf("meanItemRedundancy=%.3f (paper .66)\n", red.MeanItemRedundancy)
	fullObj := 0
	for _, r := range red.ObjectRedundancy {
		if r >= 0.999 {
			fullObj++
		}
	}
	fmt.Printf("objects with full redundancy=%.2f (paper .83)\n",
		float64(fullObj)/float64(len(ds.Objects)))

	acc, cov := gld.SourceAccuracy(ds, snap)
	printAccuracy(ds, acc, cov, []int{0, 1, 2, 3, 4, 5}, map[model.SourceID]bool{5: true})

	// Consistency with and without StockSmart.
	smart, _ := ds.SourceByName("StockSmart")
	for _, excl := range []bool{false, true} {
		opts := quality.ConsistencyOptions{}
		label := "all"
		if excl {
			opts.ExcludeSources = map[model.SourceID]bool{smart.ID: true}
			label = "w/o StockSmart"
		}
		items := quality.Consistency(ds, snap, opts)
		sum := quality.Summarize(items)
		fmt.Printf("[%s] meanNumValues=%.2f (3.7) single=%.2f (.17/.37) entropy=%.2f (.58)\n",
			label, sum.MeanNumValues, sum.SingleValueShare, sum.MeanEntropy)
		byAttr := quality.ByAttribute(ds, items)
		sort.Slice(byAttr, func(i, j int) bool { return byAttr[i].MeanNumValues > byAttr[j].MeanNumValues })
		for _, a := range byAttr {
			fmt.Printf("  %-22s n=%.2f H=%.2f dev=%.2f\n", a.Name, a.MeanNumValues, a.MeanEntropy, a.MeanDeviation)
		}
	}

	dom := quality.Dominance(ds, snap, gld, nil)
	fmt.Printf("VOTE precision=%.3f (paper .908)\n", dom.VotePrecision)
	for _, b := range dom.Bins {
		fmt.Printf("  dom(%.1f,%.1f] share=%.3f prec=%.2f\n", b.Low, b.High, b.Share, b.Precision)
	}

	reasons := quality.Reasons(ds, snap)
	fmt.Printf("reasons: semantic=%.2f (.46) instance=%.2f (.06) stale=%.2f (.34) unit=%.2f (.03) error=%.2f (.11)\n",
		reasons[model.CauseSemantic], reasons[model.CauseInstance],
		reasons[model.CauseStale], reasons[model.CauseUnit], reasons[model.CauseError])

	groups := make([]quality.Group, 0)
	for _, g := range gen.CopyGroups() {
		groups = append(groups, quality.Group{Remark: g.Remark, Members: g.Members})
	}
	for _, gs := range quality.CopyingStats(ds, snap, groups, acc) {
		fmt.Printf("copy group %-18s size=%d schema=%.2f obj=%.2f val=%.2f acc=%.2f\n",
			gs.Remark, gs.Size, gs.SchemaSim, gs.ObjectSim, gs.ValueSim, gs.AvgAccuracy)
	}
}

func calibrateFlight(seed int64) {
	fmt.Println("=== FLIGHT ===")
	gen := datagen.NewFlight(datagen.DefaultFlightConfig(seed))
	ds := gen.Dataset()
	snap := gen.Snapshot(7) // the paper reports 2011-12-08
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(value.DefaultAlpha, snap)
	gld := gold.ForGenerated(gen, snap)

	fmt.Printf("claims=%d items=%d goldItems=%d localAttrs=%d globalAttrs=%d\n",
		snap.NumClaims(), len(ds.Items), gld.Len(), gen.LocalAttrCount(), len(ds.Attrs))

	red := quality.Redundancy(ds, snap, gen.FusedSources())
	fmt.Printf("meanItemRedundancy=%.3f (paper .32)\n", red.MeanItemRedundancy)

	acc, cov := gld.SourceAccuracy(ds, snap)
	printAccuracy(ds, acc, cov, []int{3, 4, 5, 13, 18, 22, 25, 27}, map[model.SourceID]bool{0: true, 1: true, 2: true})

	items := quality.Consistency(ds, snap, quality.ConsistencyOptions{
		Sources: sourceSet(gen.FusedSources()),
	})
	sum := quality.Summarize(items)
	fmt.Printf("meanNumValues=%.2f (1.45) single=%.2f (.61) entropy=%.2f (.24)\n",
		sum.MeanNumValues, sum.SingleValueShare, sum.MeanEntropy)
	for _, a := range quality.ByAttribute(ds, items) {
		fmt.Printf("  %-22s n=%.2f H=%.2f dev=%.2f\n", a.Name, a.MeanNumValues, a.MeanEntropy, a.MeanDeviation)
	}

	dom := quality.Dominance(ds, snap, gld, gen.FusedSources())
	fmt.Printf("VOTE precision=%.3f (paper .864)\n", dom.VotePrecision)
	for _, b := range dom.Bins {
		fmt.Printf("  dom(%.1f,%.1f] share=%.3f prec=%.2f\n", b.Low, b.High, b.Share, b.Precision)
	}

	reasons := quality.Reasons(ds, snap)
	fmt.Printf("reasons: semantic=%.2f (.33) stale=%.2f (.11) error=%.2f (.56)\n",
		reasons[model.CauseSemantic], reasons[model.CauseStale], reasons[model.CauseError])

	groups := make([]quality.Group, 0)
	for _, g := range gen.CopyGroups() {
		groups = append(groups, quality.Group{Remark: g.Remark, Members: g.Members})
	}
	for _, gs := range quality.CopyingStats(ds, snap, groups, acc) {
		fmt.Printf("copy group %-18s size=%d schema=%.2f obj=%.2f val=%.2f acc=%.2f\n",
			gs.Remark, gs.Size, gs.SchemaSim, gs.ObjectSim, gs.ValueSim, gs.AvgAccuracy)
	}
}

func printAccuracy(ds *model.Dataset, acc, cov []float64, highlight []int, exclude map[model.SourceID]bool) {
	var xs []float64
	over9, under7 := 0, 0
	for s := range acc {
		if exclude[model.SourceID(s)] {
			continue
		}
		if cov[s] == 0 {
			continue
		}
		xs = append(xs, acc[s])
		if acc[s] > 0.9 {
			over9++
		}
		if acc[s] < 0.7 {
			under7++
		}
	}
	fmt.Printf("accuracy mean=%.3f min=%.2f max=%.2f >.9=%.2f <.7=%.2f\n",
		stats.Mean(xs), stats.Min(xs), stats.Max(xs),
		float64(over9)/float64(len(xs)), float64(under7)/float64(len(xs)))
	for _, s := range highlight {
		fmt.Printf("  %-16s acc=%.3f cov=%.3f\n", ds.Sources[s].Name, acc[s], cov[s])
	}
}

func sourceSet(src []model.SourceID) map[model.SourceID]bool {
	m := make(map[model.SourceID]bool, len(src))
	for _, s := range src {
		m[s] = true
	}
	return m
}
