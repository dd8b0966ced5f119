package datagen

import (
	"slices"
	"testing"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

func smallStock(seed int64) StockConfig {
	cfg := DefaultStockConfig(seed)
	cfg.Stocks = 80
	cfg.GoldSymbols = 40
	cfg.Days = 3
	return cfg
}

func smallFlight(seed int64) FlightConfig {
	cfg := DefaultFlightConfig(seed)
	cfg.Flights = 120
	cfg.GoldFlights = 30
	cfg.Days = 3
	return cfg
}

func TestStockDeterminism(t *testing.T) {
	g1 := NewStock(smallStock(7))
	g2 := NewStock(smallStock(7))
	s1 := g1.Snapshot(1)
	s2 := g2.Snapshot(1)
	if s1.NumClaims() != s2.NumClaims() {
		t.Fatalf("claim counts differ: %d vs %d", s1.NumClaims(), s2.NumClaims())
	}
	c1, c2 := claimList(s1), claimList(s2)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("claim %d differs: %+v vs %+v", i, c1[i], c2[i])
		}
	}
}

// claimList collects a snapshot's claims in (item, source) order.
func claimList(s *model.Snapshot) []model.Claim {
	out := make([]model.Claim, 0, s.NumClaims())
	for _, c := range s.Claims {
		out = append(out, c)
	}
	return out
}

func TestStockSeedSensitivity(t *testing.T) {
	a := NewStock(smallStock(1)).Snapshot(0)
	b := NewStock(smallStock(2)).Snapshot(0)
	if slices.Equal(claimList(a), claimList(b)) {
		t.Error("different seeds produced identical data")
	}
}

func TestStockDayIndependence(t *testing.T) {
	// Generating day 2 alone must equal day 2 from a fresh generator that
	// also generated other days first.
	g1 := NewStock(smallStock(3))
	_ = g1.Snapshot(0)
	_ = g1.Snapshot(1)
	viaSequence := g1.Snapshot(2)
	g2 := NewStock(smallStock(3))
	direct := g2.Snapshot(2)
	if !slices.Equal(claimList(direct), claimList(viaSequence)) {
		t.Fatal("day 2 claims differ between direct and sequential generation")
	}
}

func TestStockRosterStructure(t *testing.T) {
	g := NewStock(smallStock(1))
	profiles := g.Profiles()
	if len(profiles) != 55 {
		t.Fatalf("roster size = %d", len(profiles))
	}
	auths := g.Authorities()
	if len(auths) != 5 {
		t.Fatalf("authorities = %d", len(auths))
	}
	for _, a := range auths {
		if !profiles[a].Authority {
			t.Errorf("source %d not marked authority", a)
		}
	}
	groups := g.CopyGroups()
	if len(groups) != 2 || len(groups[0].Members) != 11 || len(groups[1].Members) != 2 {
		t.Fatalf("copy groups = %+v", groups)
	}
	for _, grp := range groups {
		for i, m := range grp.Members {
			p := profiles[m]
			if i == 0 {
				if p.CopyOf != model.NoSource {
					t.Errorf("group origin %d should be independent", m)
				}
			} else if p.CopyOf != grp.Origin {
				t.Errorf("member %d copies %d, want %d", m, p.CopyOf, grp.Origin)
			}
		}
	}
	// StockSmart is frozen before the window.
	smart, ok := g.Dataset().SourceByName("StockSmart")
	if !ok {
		t.Fatal("StockSmart missing")
	}
	if !profiles[smart.ID].Frozen || profiles[smart.ID].FrozenDay >= 0 {
		t.Errorf("StockSmart profile = %+v", profiles[smart.ID])
	}
}

func TestStockSchemaStatistics(t *testing.T) {
	g := NewStock(smallStock(1))
	ds := g.Dataset()
	if len(ds.Attrs) != 153 {
		t.Errorf("global attrs = %d, want 153", len(ds.Attrs))
	}
	considered := ds.ConsideredAttrs()
	if len(considered) != 16 {
		t.Errorf("considered attrs = %d, want 16", len(considered))
	}
	if got := g.LocalAttrCount(); got < 153 || got > 460 {
		t.Errorf("local attr count = %d, want within (153, 460)", got)
	}
	if len(ds.Items) != 80*16 {
		t.Errorf("items = %d", len(ds.Items))
	}
}

func TestStockClaimsAreValid(t *testing.T) {
	g := NewStock(smallStock(1))
	ds := g.Dataset()
	snap := g.Snapshot(0)
	ds.AddSnapshot(snap)
	if err := ds.Validate(); err != nil {
		t.Fatalf("generated dataset invalid: %v", err)
	}
	// Copied claims must name their origin.
	copied := 0
	for _, c := range snap.Claims {
		if c.CopiedFrom != model.NoSource {
			copied++
			if g.Profiles()[c.Source].CopyOf != c.CopiedFrom {
				t.Fatalf("claim by %d copied from %d, profile says %d",
					c.Source, c.CopiedFrom, g.Profiles()[c.Source].CopyOf)
			}
		}
	}
	if copied == 0 {
		t.Error("no copied claims generated")
	}
}

func TestStockTruthMatchesWorld(t *testing.T) {
	g := NewStock(smallStock(1))
	truth := g.Truth(0)
	if truth.Len() != len(g.Dataset().Items) {
		t.Errorf("truth table size = %d, want %d", truth.Len(), len(g.Dataset().Items))
	}
	// Market cap truth = last price x shares outstanding.
	ds := g.Dataset()
	last, _ := ds.AttrByName("Last price")
	shares, _ := ds.AttrByName("Shares outstanding")
	mcap, _ := ds.AttrByName("Market cap")
	for obj := model.ObjectID(0); obj < 5; obj++ {
		li, _ := ds.LookupItem(obj, last.ID)
		si, _ := ds.LookupItem(obj, shares.ID)
		mi, _ := ds.LookupItem(obj, mcap.ID)
		lv, _ := truth.Get(li)
		sv, _ := truth.Get(si)
		mv, _ := truth.Get(mi)
		if diff := mv.Num - lv.Num*sv.Num; diff > 1e-6*mv.Num {
			t.Errorf("object %d: mcap %v != last %v * shares %v", obj, mv.Num, lv.Num, sv.Num)
		}
	}
}

func TestFlightDeterminismAndStructure(t *testing.T) {
	g1 := NewFlight(smallFlight(5))
	g2 := NewFlight(smallFlight(5))
	s1, s2 := g1.Snapshot(1), g2.Snapshot(1)
	if !slices.Equal(claimList(s1), claimList(s2)) {
		t.Fatal("flight claims differ between identical generators")
	}

	profiles := g1.Profiles()
	if len(profiles) != 38 {
		t.Fatalf("flight roster = %d", len(profiles))
	}
	if len(g1.Authorities()) != 3 {
		t.Fatalf("flight authorities = %d", len(g1.Authorities()))
	}
	if len(g1.FusedSources()) != 35 {
		t.Fatalf("fused sources = %d, want 35 (airline sites excluded)", len(g1.FusedSources()))
	}
	groups := g1.CopyGroups()
	sizes := []int{5, 4, 3, 2, 2}
	if len(groups) != len(sizes) {
		t.Fatalf("flight copy groups = %d", len(groups))
	}
	for i, grp := range groups {
		if len(grp.Members) != sizes[i] {
			t.Errorf("group %d size = %d, want %d", i, len(grp.Members), sizes[i])
		}
	}
}

func TestAirlineSitesCoverOwnFlightsOnly(t *testing.T) {
	g := NewFlight(smallFlight(1))
	ds := g.Dataset()
	snap := g.Snapshot(0)
	for _, c := range snap.Claims {
		if int(c.Source) < 3 { // airline sites
			obj := ds.Objects[ds.Items[c.Item].Object]
			if obj.Group != ds.Sources[c.Source].Name[:2] {
				t.Fatalf("airline site %s claims flight of %s",
					ds.Sources[c.Source].Name, obj.Group)
			}
		}
	}
}

func TestFlightTimesAreValidMinutes(t *testing.T) {
	g := NewFlight(smallFlight(1))
	snap := g.Snapshot(0)
	for _, c := range snap.Claims {
		if c.Val.Kind == value.Time {
			if c.Val.Num < -600 || c.Val.Num > 2400 {
				t.Fatalf("implausible time claim: %v", c.Val.Num)
			}
		}
	}
}

func TestGeneratedBundles(t *testing.T) {
	gen := GenerateStock(smallStock(1))
	if len(gen.Dataset.Snapshots) != 3 || len(gen.Truths) != 3 {
		t.Errorf("stock bundle: %d snapshots, %d truths", len(gen.Dataset.Snapshots), len(gen.Truths))
	}
	fgen := GenerateFlight(smallFlight(1))
	if len(fgen.Dataset.Snapshots) != 3 {
		t.Errorf("flight snapshots = %d", len(fgen.Dataset.Snapshots))
	}
	if gen.Dataset.Tolerances == nil || fgen.Dataset.Tolerances == nil {
		t.Error("bundles should come with tolerances computed")
	}
}

func TestGoldObjectsExcludeTerminated(t *testing.T) {
	g := NewStock(smallStock(1))
	for _, o := range g.GoldObjects() {
		if int(o) >= 80-numTerminated {
			t.Errorf("terminated symbol %d in gold objects", o)
		}
	}
	if len(g.GoldObjects()) != 40 {
		t.Errorf("gold objects = %d", len(g.GoldObjects()))
	}
}

func TestRNGStability(t *testing.T) {
	// The counter-based PRNG must be stable across runs and platforms;
	// freeze a few outputs.
	r := newRNG(42, 1, 2, 3)
	got := []uint64{r.next(), r.next(), r.next()}
	r2 := newRNG(42, 1, 2, 3)
	want := []uint64{r2.next(), r2.next(), r2.next()}
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("rng not reproducible")
		}
	}
	// Distribution sanity.
	r3 := newRNG(7)
	var sum float64
	n := 10000
	for i := 0; i < n; i++ {
		x := r3.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of range: %v", x)
		}
		sum += x
	}
	if mean := sum / float64(n); mean < 0.47 || mean > 0.53 {
		t.Errorf("Float64 mean = %v", mean)
	}
	for i := 0; i < 1000; i++ {
		if v := r3.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if g := r3.Geometric(0.5, 8); g < 1 || g > 8 {
			t.Fatalf("Geometric out of range: %d", g)
		}
	}
	perm := r3.Perm(20)
	seen := make([]bool, 20)
	for _, p := range perm {
		if seen[p] {
			t.Fatal("Perm repeated an element")
		}
		seen[p] = true
	}
	if i := r3.Pick([]float64{0, 0, 1}); i != 2 {
		t.Errorf("Pick with single mass = %d", i)
	}
}

func TestConfigPanics(t *testing.T) {
	assertPanics(t, "tiny stock roster", func() {
		cfg := smallStock(1)
		cfg.Sources = 10
		NewStock(cfg)
	})
	assertPanics(t, "too many gold symbols", func() {
		cfg := smallStock(1)
		cfg.GoldSymbols = cfg.Stocks
		NewStock(cfg)
	})
	assertPanics(t, "tiny flight roster", func() {
		cfg := smallFlight(1)
		cfg.Sources = 5
		NewFlight(cfg)
	})
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
