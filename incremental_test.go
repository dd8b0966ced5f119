package truthdiscovery

import (
	"fmt"
	"reflect"
	"testing"

	"truthdiscovery/internal/datagen"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// streamWorld returns a reduced but calibrated multi-day collection with
// one fixed tolerance regime over the whole period (the streaming-ingest
// contract), plus the per-day snapshots.
func streamWorlds(t testing.TB, days int) []struct {
	name  string
	ds    *Dataset
	snaps []*Snapshot
	fused []SourceID
} {
	t.Helper()
	scfg := datagen.DefaultStockConfig(5)
	scfg.Stocks = 100
	scfg.GoldSymbols = 50
	scfg.Days = days
	sgen := datagen.NewStock(scfg)

	fcfg := datagen.DefaultFlightConfig(5)
	fcfg.Flights = 150
	fcfg.GoldFlights = 50
	fcfg.Days = days
	fgen := datagen.NewFlight(fcfg)

	type world = struct {
		name  string
		ds    *Dataset
		snaps []*Snapshot
		fused []SourceID
	}
	var out []world
	for _, g := range []struct {
		name string
		gen  datagen.Generator
	}{{"Stock", sgen}, {"Flight", fgen}} {
		ds := g.gen.Dataset()
		var snaps []*Snapshot
		for d := 0; d < days; d++ {
			snaps = append(snaps, g.gen.Snapshot(d))
			ds.AddSnapshot(snaps[d])
		}
		ds.ComputeTolerances(value.DefaultAlpha, snaps...)
		out = append(out, world{g.name, ds, snaps, g.gen.FusedSources()})
	}
	return out
}

// TestFuseIncrementalBitIdentical is the acceptance contract of the
// streaming engine: advancing a fused state over the day-over-day delta
// stream of the simulated Stock and Flight collections produces answers
// bit-identical to full Fuse on each day's snapshot, for an item-local
// method (Vote), a plain Bayesian method (AccuPr) and the paper's
// strongest method (AccuFormatAttr). CI runs this under -race.
func TestFuseIncrementalBitIdentical(t *testing.T) {
	const days = 4
	for _, w := range streamWorlds(t, days) {
		for _, method := range []string{"Vote", "AccuPr", "AccuFormatAttr"} {
			opts := FuseOptions{Sources: w.fused}
			got, state, err := FuseStateful(w.ds, w.snaps[0], method, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Fuse(w.ds, w.snaps[0], method, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s day 0: stateful answers differ from Fuse", w.name, method)
			}

			for d := 1; d < days; d++ {
				delta, err := w.snaps[d-1].Diff(w.snaps[d])
				if err != nil {
					t.Fatal(err)
				}
				got, state, err = FuseIncremental(w.ds, state, delta, method, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err = Fuse(w.ds, w.snaps[d], method, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s day %d: incremental answers differ from full re-fusion (mode %s)",
						w.name, method, d, state.Stats.Mode)
				}
				if method == "Vote" && state.Stats.Mode != ModeLocal {
					t.Fatalf("%s/Vote day %d: mode %s, want local", w.name, d, state.Stats.Mode)
				}
			}
		}
	}
}

// TestFuseIncrementalAllMethods extends the bit-identity contract to the
// full sixteen-method roster on the calibrated Stock stream: whatever
// path Advance picks for a method (item-local, warm or full re-run on
// the maintained problem), the incremental answers must equal full Fuse
// of each day's snapshot exactly.
func TestFuseIncrementalAllMethods(t *testing.T) {
	const days = 3
	w := streamWorlds(t, days)[0] // Stock
	for _, m := range fusion.Methods() {
		method := m.Name()
		opts := FuseOptions{Sources: w.fused}
		got, state, err := FuseStateful(w.ds, w.snaps[0], method, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Fuse(w.ds, w.snaps[0], method, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s day 0: stateful answers differ from Fuse", method)
		}
		for d := 1; d < days; d++ {
			delta, err := w.snaps[d-1].Diff(w.snaps[d])
			if err != nil {
				t.Fatal(err)
			}
			got, state, err = FuseIncremental(w.ds, state, delta, method, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err = Fuse(w.ds, w.snaps[d], method, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s day %d: incremental answers differ from full re-fusion (mode %s)",
					method, d, state.Stats.Mode)
			}
		}
	}
}

// TestFuseIncrementalTrustBitIdentical pins the trust vectors too, not
// just the answers, on the Stock stream.
func TestFuseIncrementalTrustBitIdentical(t *testing.T) {
	const days = 3
	w := streamWorlds(t, days)[0]
	for _, method := range []string{"AccuPr", "AccuFormatAttr"} {
		opts := FuseOptions{Sources: w.fused}
		_, state, err := FuseStateful(w.ds, w.snaps[0], method, opts)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d < days; d++ {
			delta, err := w.snaps[d-1].Diff(w.snaps[d])
			if err != nil {
				t.Fatal(err)
			}
			_, state, err = FuseIncremental(w.ds, state, delta, method, opts)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := fusion.ByName(method)
			full := m.Run(fusion.Build(w.ds, w.snaps[d], w.fused, m.Needs()), fusion.Options{})
			if !reflect.DeepEqual(state.Result().Trust, full.Trust) {
				t.Fatalf("%s day %d: trust vectors differ", method, d)
			}
			if !reflect.DeepEqual(state.Result().AttrTrust, full.AttrTrust) {
				t.Fatalf("%s day %d: attr trust differs", method, d)
			}
			if state.Result().Rounds != full.Rounds {
				t.Fatalf("%s day %d: rounds %d vs %d", method, d, state.Result().Rounds, full.Rounds)
			}
		}
	}
}

// TestBuilderStream exercises the public streaming-ingest path end to end:
// seal days on a Builder, get the delta stream, fuse incrementally, and
// check against full fusion of every reconstructed day.
func TestBuilderStream(t *testing.T) {
	b := NewBuilder("inventory")
	price := b.Attribute("price", Number)
	stores := make([]SourceID, 6)
	for i := range stores {
		stores[i] = b.Source(fmt.Sprintf("store%d", i))
	}
	items := make([]ObjectID, 8)
	for i := range items {
		items[i] = b.Object(fmt.Sprintf("sku%d", i))
	}

	// Day 0: everyone roughly agrees, one store is off.
	for i, obj := range items {
		base := fmt.Sprintf("%d.50", 10+i)
		for s, store := range stores {
			v := base
			if s == 5 {
				v = fmt.Sprintf("%d.80", 10+i)
			}
			if err := b.Claim(store, obj, price, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	b.EndDay("mon")

	// Day 1: one SKU reprices, one store drops a SKU, a new claim appears.
	for i, obj := range items {
		base := fmt.Sprintf("%d.50", 10+i)
		if i == 2 {
			base = "99.00"
		}
		for s, store := range stores {
			if s == 4 && i == 0 {
				continue // retracted
			}
			v := base
			if s == 5 {
				v = fmt.Sprintf("%d.80", 10+i)
			}
			if err := b.Claim(store, obj, price, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	b.EndDay("tue")

	ds, day0, deltas, err := b.BuildStream()
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 {
		t.Fatalf("deltas = %d, want 1", len(deltas))
	}
	if deltas[0].Empty() {
		t.Fatal("day churn produced an empty delta")
	}

	answers, state, err := FuseStateful(ds, day0, "AccuPr", FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(items) {
		t.Fatalf("day0 answers = %d, want %d", len(answers), len(items))
	}

	answers, state, err = FuseIncremental(ds, state, deltas[0], "AccuPr", FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	day1, err := day0.Apply(deltas[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := Fuse(ds, day1, "AccuPr", FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(answers, want) {
		t.Fatal("incremental answers differ from full fusion of day 1")
	}
	// The repriced SKU must have moved to the new consensus.
	for _, a := range answers {
		if a.ObjectKey == "sku2" && a.Value.Num != 99 {
			t.Fatalf("sku2 fused to %v, want 99", a.Value)
		}
	}
}

// TestFuseIncrementalGuards checks the API-misuse errors.
func TestFuseIncrementalGuards(t *testing.T) {
	w := streamWorlds(t, 2)[0]
	if _, _, err := FuseStateful(w.ds, w.snaps[0], "NoSuchMethod", FuseOptions{}); err == nil {
		t.Fatal("unknown method accepted")
	}
	_, state, err := FuseStateful(w.ds, w.snaps[0], "Vote", FuseOptions{Sources: w.fused})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := w.snaps[0].Diff(w.snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := FuseIncremental(w.ds, state, delta, "AccuPr", FuseOptions{}); err == nil {
		t.Fatal("method mismatch accepted")
	}
	// The roster is frozen into the state; changing it must error, while
	// re-passing the same roster stays fine.
	if _, _, err := FuseIncremental(w.ds, state, delta, "Vote", FuseOptions{Sources: w.fused[:3]}); err == nil {
		t.Fatal("roster change accepted")
	}
	if _, _, err := FuseIncremental(w.ds, state, delta, "Vote", FuseOptions{Sources: w.fused}); err != nil {
		t.Fatalf("same roster rejected: %v", err)
	}
	if _, _, err := FuseIncremental(w.ds, nil, delta, "Vote", FuseOptions{}); err == nil {
		t.Fatal("nil state accepted")
	}
	gold := model.NewTruthTable()
	if _, _, err := FuseStateful(w.ds, w.snaps[0], "Vote", FuseOptions{Gold: gold}); err == nil {
		t.Fatal("sampled trust accepted by FuseStateful")
	}

	// The layout is frozen into the state too: zero keeps it, the state's
	// own values are accepted, and any other shard count or resident bound
	// is an error rather than silently ignored — whether the layout came
	// from Shards or from the planner's arena budget.
	layouts := []struct {
		name  string
		built FuseOptions
		ok    []FuseOptions
		bad   []FuseOptions
	}{
		{"one shard", FuseOptions{Sources: w.fused},
			[]FuseOptions{{}, {Shards: 1}},
			[]FuseOptions{{Shards: 2}, {Shards: 4, MaxResidentShards: 1}}},
		{"four shards", FuseOptions{Sources: w.fused, Shards: 4},
			[]FuseOptions{{}, {Shards: 4}},
			[]FuseOptions{{Shards: 8, MaxResidentShards: 2}, {Shards: 2}, {Shards: 1}, {Shards: 4, MaxResidentShards: 2}}},
		{"four shards, two resident", FuseOptions{Sources: w.fused, Shards: 4, MaxResidentShards: 2},
			[]FuseOptions{{}, {Shards: 4, MaxResidentShards: 2}},
			[]FuseOptions{{Shards: 4, MaxResidentShards: 1}, {Shards: 2}}},
		{"arena budget", FuseOptions{Sources: w.fused, Planner: &Planner{ArenaBudgetBytes: 64 << 10}},
			[]FuseOptions{{Planner: &Planner{ArenaBudgetBytes: 64 << 10}}},
			[]FuseOptions{{Shards: 1}, {Shards: 1, Planner: &Planner{ArenaBudgetBytes: 64 << 10}}}},
	}
	for _, tc := range layouts {
		_, st, err := FuseStateful(w.ds, w.snaps[0], "Vote", tc.built)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, o := range tc.ok {
			if _, _, err := FuseIncremental(w.ds, st, delta, "Vote", o); err != nil {
				t.Fatalf("%s: advancing with %+v rejected: %v", tc.name, o, err)
			}
		}
		for _, o := range tc.bad {
			if _, _, err := FuseIncremental(w.ds, st, delta, "Vote", o); err == nil {
				t.Fatalf("%s: advancing with Shards %d, MaxResidentShards %d accepted", tc.name, o.Shards, o.MaxResidentShards)
			}
		}
	}
}
