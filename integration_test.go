package truthdiscovery

import (
	"testing"

	"truthdiscovery/internal/datagen"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/gold"
	"truthdiscovery/internal/quality"
	"truthdiscovery/internal/value"
)

// TestEndToEndStock drives the full pipeline on a reduced Stock world:
// generate -> gold standard -> Section 3 profiling -> fusion -> evaluation,
// asserting the paper's qualitative findings at each stage.
func TestEndToEndStock(t *testing.T) {
	cfg := datagen.DefaultStockConfig(1)
	cfg.Stocks = 250
	cfg.GoldSymbols = 120
	cfg.Days = 2
	gen := datagen.NewStock(cfg)
	ds := gen.Dataset()
	snap := gen.Snapshot(1)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(value.DefaultAlpha, snap)
	gld := gold.ForGenerated(gen, snap)

	if gld.Len() < 1000 {
		t.Fatalf("gold standard too small: %d", gld.Len())
	}

	// Section 3: conflicts exist, sources vary in accuracy, prices are
	// cleaner than statistical attributes.
	items := quality.Consistency(ds, snap, quality.ConsistencyOptions{})
	sum := quality.Summarize(items)
	if sum.MeanNumValues < 1.5 || sum.MeanNumValues > 8 {
		t.Errorf("mean number of values = %v, implausible", sum.MeanNumValues)
	}
	byAttr := quality.ByAttribute(ds, items)
	var prevClose, volume float64
	for _, a := range byAttr {
		switch a.Name {
		case "Previous close":
			prevClose = a.MeanNumValues
		case "Volume":
			volume = a.MeanNumValues
		}
	}
	if !(volume > prevClose) {
		t.Errorf("volume inconsistency (%v) should exceed previous close (%v)", volume, prevClose)
	}

	acc, _ := gld.SourceAccuracy(ds, snap)
	smart, _ := ds.SourceByName("StockSmart")
	if acc[smart.ID] > 0.4 {
		t.Errorf("frozen StockSmart accuracy = %v, should be tiny", acc[smart.ID])
	}
	googleAcc := acc[0]
	if googleAcc < 0.85 {
		t.Errorf("authority accuracy = %v, should be high", googleAcc)
	}

	// Section 4: fusion beats VOTE; trust input helps.
	p := fusion.Build(ds, snap, gen.FusedSources(),
		fusion.BuildOptions{NeedSimilarity: true, NeedFormat: true})
	voteM, _ := fusion.ByName("Vote")
	vote := fusion.Evaluate(ds, p, voteM.Run(p, fusion.Options{}), gld)
	best, _ := fusion.ByName("AccuFormatAttr")
	noTrust := fusion.Evaluate(ds, p, best.Run(p, fusion.Options{}), gld)
	sampled := best.TrustScale(fusion.SampleAccuracy(ds, snap, p, gld))
	attrAcc := fusion.SampleAttrAccuracy(ds, snap, p, gld)
	withTrust := fusion.Evaluate(ds, p,
		best.Run(p, fusion.Options{InputTrust: sampled, InputAttrTrust: attrAcc}), gld)

	if noTrust.Precision <= vote.Precision {
		t.Errorf("AccuFormatAttr (%v) should beat VOTE (%v)", noTrust.Precision, vote.Precision)
	}
	if withTrust.Precision < noTrust.Precision-0.005 {
		t.Errorf("sampled trust (%v) should not hurt (%v)", withTrust.Precision, noTrust.Precision)
	}
}

// TestEndToEndFlight exercises the Flight pipeline and its headline: copied
// wrong values break VOTE, copy-aware handling recovers.
func TestEndToEndFlight(t *testing.T) {
	cfg := datagen.DefaultFlightConfig(1)
	cfg.Flights = 300
	cfg.GoldFlights = 80
	cfg.Days = 2
	gen := datagen.NewFlight(cfg)
	ds := gen.Dataset()
	snap := gen.Snapshot(1)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(value.DefaultAlpha, snap)
	gld := gold.ForGenerated(gen, snap)

	p := fusion.Build(ds, snap, gen.FusedSources(),
		fusion.BuildOptions{NeedSimilarity: true, NeedFormat: true})
	voteM, _ := fusion.ByName("Vote")
	vote := fusion.Evaluate(ds, p, voteM.Run(p, fusion.Options{}), gld)
	if vote.Precision > 0.96 {
		t.Fatalf("VOTE = %v; the copying cliques should cause visible damage", vote.Precision)
	}

	var groups [][]SourceID
	for _, g := range gen.CopyGroups() {
		groups = append(groups, g.Members)
	}
	mc, _ := fusion.ByName("AccuCopy")
	known := fusion.Evaluate(ds, p, mc.Run(p, fusion.Options{KnownGroups: groups}), gld)
	if known.Precision <= vote.Precision {
		t.Errorf("AccuCopy with known groups (%v) should beat VOTE (%v)",
			known.Precision, vote.Precision)
	}

	// Copy detection self-check: planted pairs recovered against the gold
	// truth assignment.
	acc := fusion.SampleAccuracy(ds, snap, p, gld)
	chosen := make([]int32, len(p.Items))
	dep := fusion.DebugDetect(p, chosen, acc, fusion.Options{})
	indexOf := map[SourceID]int{}
	for i, s := range p.SourceIDs {
		indexOf[s] = i
	}
	found, total := 0, 0
	for _, grp := range gen.CopyGroups() {
		for i := 0; i < len(grp.Members); i++ {
			for j := i + 1; j < len(grp.Members); j++ {
				total++
				if dep[indexOf[grp.Members[i]]][indexOf[grp.Members[j]]] > 0.5 {
					found++
				}
			}
		}
	}
	if float64(found) < 0.8*float64(total) {
		t.Errorf("copy detection recovered %d/%d planted pairs", found, total)
	}
}
