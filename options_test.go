package truthdiscovery

import (
	"strings"
	"testing"
)

// The public fusion surface must not silently ignore options (ISSUE 5):
// Fuse routes Shards > 1 to the sharded engine, and every entry point
// validates knob combinations instead of no-opping them.

// optionsWorld builds a small two-day stream with enough disagreement to
// exercise trust estimation.
func optionsWorld(t *testing.T) (*Dataset, *Snapshot, []*Delta) {
	t.Helper()
	b := NewBuilder("options")
	price := b.Attribute("price", Number)
	srcs := make([]SourceID, 6)
	for i := range srcs {
		srcs[i] = b.Source(strings.Repeat("s", i+1))
	}
	objs := make([]ObjectID, 40)
	for i := range objs {
		objs[i] = b.Object("obj" + strings.Repeat("x", i%7) + string(rune('a'+i%26)))
		for si, s := range srcs {
			v := "10.50"
			if si >= 4 && i%3 == 0 {
				v = "11.25" // minority wrong value
			}
			if err := b.Claim(s, objs[i], price, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	b.EndDay("day0")
	for i := range objs {
		v := "10.50"
		if i%5 == 0 {
			v = "12.75" // repriced
		}
		for _, s := range srcs {
			if err := b.Claim(s, objs[i], price, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	b.EndDay("day1")
	ds, day0, deltas, err := b.BuildStream()
	if err != nil {
		t.Fatal(err)
	}
	return ds, day0, deltas
}

// TestFuseHonorsShards asserts the footgun fix: Fuse given Shards: 4
// fuses over the shard set, FuseStateful lays its state out the same
// way, and both return the flat answers value for value.
func TestFuseHonorsShards(t *testing.T) {
	ds, snap, _ := optionsWorld(t)
	for _, method := range []string{"Vote", "AccuPr", "TruthFinder"} {
		opts := FuseOptions{Shards: 4}
		viaFuse, err := Fuse(ds, snap, method, opts)
		if err != nil {
			t.Fatalf("%s: Fuse: %v", method, err)
		}
		viaState, st, err := FuseStateful(ds, snap, method, opts)
		if err != nil {
			t.Fatalf("%s: FuseStateful: %v", method, err)
		}
		if st.st.Sharded.NumShards() != 4 {
			t.Fatalf("%s: stateful layout has %d shards, want 4", method, st.st.Sharded.NumShards())
		}
		flat, err := Fuse(ds, snap, method, FuseOptions{})
		if err != nil {
			t.Fatalf("%s: flat Fuse: %v", method, err)
		}
		if len(viaFuse) != len(viaState) || len(viaFuse) != len(flat) {
			t.Fatalf("%s: answer counts %d/%d/%d", method, len(viaFuse), len(viaState), len(flat))
		}
		for i := range viaFuse {
			if viaFuse[i] != viaState[i] {
				t.Fatalf("%s: answer %d differs between Fuse(Shards:4) and FuseStateful(Shards:4): %+v vs %+v",
					method, i, viaFuse[i], viaState[i])
			}
			if viaFuse[i] != flat[i] {
				t.Fatalf("%s: answer %d differs between sharded and flat: %+v vs %+v",
					method, i, viaFuse[i], flat[i])
			}
		}
	}
}

// TestFuseHonorsMaxResidentShards exercises the budget mode through plain
// Fuse, which used to drop both options on the floor.
func TestFuseHonorsMaxResidentShards(t *testing.T) {
	ds, snap, _ := optionsWorld(t)
	budget, err := Fuse(ds, snap, "AccuPr", FuseOptions{Shards: 4, MaxResidentShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Fuse(ds, snap, "AccuPr", FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat {
		if budget[i] != flat[i] {
			t.Fatalf("answer %d differs under the memory budget: %+v vs %+v", i, budget[i], flat[i])
		}
	}
}

// TestShardedIncrementalWarmTolerance: a sharded state honours a
// positive TrustTolerance with the per-shard warm path, and its warm
// answers are bit-identical to the one-shard warm path on the same
// stream. Zero tolerance stays bit-identical to a full fuse.
func TestShardedIncrementalWarmTolerance(t *testing.T) {
	ds, day0, deltas := optionsWorld(t)
	const tol = 0.05
	_, shd, err := FuseStateful(ds, day0, "AccuPr", FuseOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, flat, err := FuseStateful(ds, day0, "AccuPr", FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warmShd, shd, err := FuseIncremental(ds, shd, deltas[0], "AccuPr",
		FuseOptions{Shards: 4, TrustTolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	warmFlat, flat, err := FuseIncremental(ds, flat, deltas[0], "AccuPr",
		FuseOptions{TrustTolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	if shd.Stats.Mode != flat.Stats.Mode {
		t.Fatalf("sharded mode %s vs flat %s", shd.Stats.Mode, flat.Stats.Mode)
	}
	if len(warmShd) != len(warmFlat) {
		t.Fatalf("answer counts %d vs %d", len(warmShd), len(warmFlat))
	}
	for i := range warmFlat {
		if warmShd[i] != warmFlat[i] {
			t.Fatalf("warm answer %d differs between sharded and flat: %+v vs %+v",
				i, warmShd[i], warmFlat[i])
		}
	}

	// Zero tolerance still matches a full fuse of day 1.
	_, st, err := FuseStateful(ds, day0, "AccuPr", FuseOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	inc, _, err := FuseIncremental(ds, st, deltas[0], "AccuPr", FuseOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	day1, err := day0.Apply(deltas[0])
	if err != nil {
		t.Fatal(err)
	}
	full, err := Fuse(ds, day1, "AccuPr", FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if inc[i] != full[i] {
			t.Fatalf("incremental answer %d differs from full fuse: %+v vs %+v", i, inc[i], full[i])
		}
	}
}

// TestFlatStatefulRejectsShards: a state laid out flat (one shard)
// cannot be advanced as a sharded one — the layout is fixed per state —
// so a shard count on the advance must be refused, not ignored.
func TestFlatStatefulRejectsShards(t *testing.T) {
	ds, day0, deltas := optionsWorld(t)
	_, st, err := FuseStateful(ds, day0, "AccuPr", FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := FuseIncremental(ds, st, deltas[0], "AccuPr", FuseOptions{Shards: 4}); err == nil {
		t.Fatal("FuseIncremental accepted Shards > 1 on a flat state")
	}
}

// TestFuseOptionsValidate covers the knob combinations that used to be
// silent no-ops.
func TestFuseOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts FuseOptions
		want string // substring of the error; "" = valid
	}{
		{"zero", FuseOptions{}, ""},
		{"sharded", FuseOptions{Shards: 8, MaxResidentShards: 2}, ""},
		{"negative parallelism", FuseOptions{Parallelism: -1}, "Parallelism"},
		{"negative shards", FuseOptions{Shards: -2}, "Shards"},
		{"negative resident", FuseOptions{Shards: 4, MaxResidentShards: -1}, "MaxResidentShards"},
		{"resident without shards", FuseOptions{MaxResidentShards: 2}, "Shards > 1"},
		{"negative tolerance", FuseOptions{TrustTolerance: -0.1}, "TrustTolerance"},
		{"auto planner", FuseOptions{Planner: &Planner{Mode: PlannerAuto}}, ""},
		{"forced planner", FuseOptions{Planner: &Planner{Mode: PlannerForced, ForcePath: ModeFull}}, ""},
		{"negative warm ceiling", FuseOptions{Planner: &Planner{WarmChurnCeiling: -1}}, "WarmChurnCeiling"},
		{"force path without forced mode", FuseOptions{Planner: &Planner{ForcePath: ModeWarm}}, "ForcePath"},
	}
	ds, snap, _ := optionsWorld(t)
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.want == "" {
			if err != nil {
				t.Fatalf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
		// The entry points surface the same error instead of fusing.
		if _, ferr := Fuse(ds, snap, "Vote", tc.opts); ferr == nil {
			t.Fatalf("%s: Fuse accepted invalid options", tc.name)
		}
	}
}

// TestFingerprintStability: the fingerprint is a pure function of the
// answer-affecting options and ignores execution knobs.
func TestFingerprintStability(t *testing.T) {
	base := FuseOptions{Sources: []SourceID{0, 1, 2}}
	fp := base.Fingerprint("AccuPr")
	if fp != base.Fingerprint("AccuPr") {
		t.Fatal("fingerprint is not deterministic")
	}
	sameExec := FuseOptions{Sources: []SourceID{0, 1, 2}, Shards: 8, MaxResidentShards: 2, Parallelism: 4}
	if sameExec.Fingerprint("AccuPr") != fp {
		t.Fatal("execution knobs changed the fingerprint")
	}
	if base.Fingerprint("Vote") == fp {
		t.Fatal("method does not affect the fingerprint")
	}
	diffRoster := FuseOptions{Sources: []SourceID{0, 1}}
	if diffRoster.Fingerprint("AccuPr") == fp {
		t.Fatal("source roster does not affect the fingerprint")
	}
	diffTol := FuseOptions{Sources: []SourceID{0, 1, 2}, TrustTolerance: 0.1}
	if diffTol.Fingerprint("AccuPr") == fp {
		t.Fatal("trust tolerance does not affect the fingerprint")
	}
	// At zero tolerance every planner path is bit-identical, so the
	// planner must not perturb the digest; under a positive tolerance the
	// warm-vs-full choice is approximate and the planner's path knobs
	// must join it.
	planned := FuseOptions{Sources: []SourceID{0, 1, 2}, Planner: &Planner{Mode: PlannerAuto}}
	if planned.Fingerprint("AccuPr") != fp {
		t.Fatal("planner changed the fingerprint at zero tolerance")
	}
	// A nil planner and an empty mode plan as auto, so they digest alike.
	tolPlanned := FuseOptions{Sources: []SourceID{0, 1, 2}, TrustTolerance: 0.1,
		Planner: &Planner{Mode: PlannerAuto}}
	if tolPlanned.Fingerprint("AccuPr") != diffTol.Fingerprint("AccuPr") {
		t.Fatal("a nil planner and PlannerAuto digest differently under a positive tolerance")
	}
	emptyMode := FuseOptions{Sources: []SourceID{0, 1, 2}, TrustTolerance: 0.1, Planner: &Planner{}}
	if emptyMode.Fingerprint("AccuPr") != tolPlanned.Fingerprint("AccuPr") {
		t.Fatal("an empty planner mode and PlannerAuto digest differently under a positive tolerance")
	}
	tolForced := FuseOptions{Sources: []SourceID{0, 1, 2}, TrustTolerance: 0.1,
		Planner: &Planner{Mode: PlannerForced, ForcePath: ModeFull}}
	if tolForced.Fingerprint("AccuPr") == tolPlanned.Fingerprint("AccuPr") {
		t.Fatal("planner mode does not affect the fingerprint under a positive tolerance")
	}
	tolCeiling := FuseOptions{Sources: []SourceID{0, 1, 2}, TrustTolerance: 0.1,
		Planner: &Planner{Mode: PlannerAuto, WarmChurnCeiling: 0.4}}
	if tolCeiling.Fingerprint("AccuPr") == tolPlanned.Fingerprint("AccuPr") {
		t.Fatal("warm ceiling does not affect the fingerprint under a positive tolerance")
	}
}
