package truthdiscovery

import (
	"reflect"
	"testing"

	"truthdiscovery/internal/fusion"
)

// TestFuseShardedIncrementalAllMethods extends the sharded incremental
// bit-identity contract to the full sixteen-method roster at zero
// tolerance: whatever path the plan picks for a method on a four-shard
// state, the answers must equal full Fuse of each day's snapshot
// exactly. The planner is armed (PlannerAuto) so the plan-driven
// dispatch itself is what runs. CI runs this under -race.
func TestFuseShardedIncrementalAllMethods(t *testing.T) {
	const days = 3
	w := streamWorlds(t, days)[0] // Stock
	for _, m := range fusion.Methods() {
		method := m.Name()
		opts := FuseOptions{Sources: w.fused, Shards: 4, Planner: &Planner{Mode: PlannerAuto}}
		got, state, err := FuseStateful(w.ds, w.snaps[0], method, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Fuse(w.ds, w.snaps[0], method, FuseOptions{Sources: w.fused})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s day 0: sharded stateful answers differ from Fuse", method)
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
			want, err = Fuse(w.ds, w.snaps[d], method, FuseOptions{Sources: w.fused})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s day %d: sharded incremental answers differ from full re-fusion (mode %s)",
					method, d, state.Stats.Mode)
			}
			if state.Stats.Plan == nil || state.Stats.Plan.Layout != LayoutSharded {
				t.Fatalf("%s day %d: plan not recorded on the sharded advance", method, d)
			}
		}
	}
}

// TestShardedWarmAllAccuMethods runs every warm-capable ACCU method over
// the Stock stream with a positive tolerance at one shard and at four
// and demands bitwise-equal answers day by day — the sharded warm path
// is the flat warm path, shard-merged.
func TestShardedWarmAllAccuMethods(t *testing.T) {
	const days = 3
	const tol = 0.05
	w := streamWorlds(t, days)[0]
	for _, method := range []string{"AccuPr", "PopAccu", "AccuSim", "AccuFormat", "AccuSimAttr", "AccuFormatAttr"} {
		flatOpts := FuseOptions{Sources: w.fused, TrustTolerance: tol}
		shdOpts := FuseOptions{Sources: w.fused, TrustTolerance: tol, Shards: 4}
		_, flat, err := FuseStateful(w.ds, w.snaps[0], method, FuseOptions{Sources: w.fused})
		if err != nil {
			t.Fatal(err)
		}
		_, shd, err := FuseStateful(w.ds, w.snaps[0], method, FuseOptions{Sources: w.fused, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d < days; d++ {
			delta, err := w.snaps[d-1].Diff(w.snaps[d])
			if err != nil {
				t.Fatal(err)
			}
			gotFlat, nextFlat, err := FuseIncremental(w.ds, flat, delta, method, flatOpts)
			if err != nil {
				t.Fatal(err)
			}
			gotShd, nextShd, err := FuseIncremental(w.ds, shd, delta, method, shdOpts)
			if err != nil {
				t.Fatal(err)
			}
			if nextFlat.Stats.Mode != nextShd.Stats.Mode || nextFlat.Stats.Fallback != nextShd.Stats.Fallback {
				t.Fatalf("%s day %d: flat took %s (fallback %v), sharded %s (fallback %v)",
					method, d, nextFlat.Stats.Mode, nextFlat.Stats.Fallback,
					nextShd.Stats.Mode, nextShd.Stats.Fallback)
			}
			if !reflect.DeepEqual(gotFlat, gotShd) {
				t.Fatalf("%s day %d: warm answers differ between layouts (mode %s)",
					method, d, nextFlat.Stats.Mode)
			}
			if !reflect.DeepEqual(nextFlat.Result().Trust, nextShd.Result().Trust) {
				t.Fatalf("%s day %d: warm trust differs between layouts", method, d)
			}
			flat, shd = nextFlat, nextShd
		}
	}
}

// TestPlannerAutoMatchesForced: an auto-planned advance must be
// bit-identical to forcing the exact path it reports — the plan record
// is an honest account of what ran.
func TestPlannerAutoMatchesForced(t *testing.T) {
	const days = 3
	const tol = 0.05
	w := streamWorlds(t, days)[0]
	for _, method := range []string{"Vote", "AccuPr", "AccuFormatAttr"} {
		base := FuseOptions{Sources: w.fused, TrustTolerance: tol}

		autoOpts := base
		autoOpts.Planner = &Planner{Mode: PlannerAuto}
		_, autoSt, err := FuseStateful(w.ds, w.snaps[0], method, autoOpts)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d < days; d++ {
			delta, err := w.snaps[d-1].Diff(w.snaps[d])
			if err != nil {
				t.Fatal(err)
			}
			gotAuto, nextAuto, err := FuseIncremental(w.ds, autoSt, delta, method, autoOpts)
			if err != nil {
				t.Fatal(err)
			}
			plan := nextAuto.Stats.Plan
			if plan == nil {
				t.Fatalf("%s day %d: auto advance recorded no plan", method, d)
			}
			// Replay the same advance from the same previous state, forcing
			// the path the auto plan says it executed. A fallback advance is
			// forced as warm (what auto attempted) and must fall back to the
			// same full answers.
			forcedPath := plan.Path
			if nextAuto.Stats.Fallback {
				forcedPath = ModeWarm
			}
			forcedOpts := base
			forcedOpts.Planner = &Planner{Mode: PlannerForced, ForcePath: forcedPath}
			gotForced, nextForced, err := FuseIncremental(w.ds, autoSt, delta, method, forcedOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotAuto, gotForced) {
				t.Fatalf("%s day %d: auto (%s) differs from forced %s",
					method, d, plan.Path, forcedPath)
			}
			if !reflect.DeepEqual(nextAuto.Result().Trust, nextForced.Result().Trust) {
				t.Fatalf("%s day %d: trust differs between auto and forced %s", method, d, forcedPath)
			}
			autoSt = nextAuto
		}
	}
}

// TestForcedPathErrors: forcing a path the method cannot run is an
// error at Advance time, not a silent different path.
func TestForcedPathErrors(t *testing.T) {
	const days = 2
	w := streamWorlds(t, days)[0]
	delta, err := w.snaps[0].Diff(w.snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	// AccuPr is not item-local.
	_, st, err := FuseStateful(w.ds, w.snaps[0], "AccuPr", FuseOptions{Sources: w.fused})
	if err != nil {
		t.Fatal(err)
	}
	bad := FuseOptions{Sources: w.fused,
		Planner: &Planner{Mode: PlannerForced, ForcePath: ModeLocal}}
	if _, _, err := FuseIncremental(w.ds, st, delta, "AccuPr", bad); err == nil {
		t.Fatal("forced local accepted for a non-item-local method")
	}
	// Warm needs a positive tolerance.
	badWarm := FuseOptions{Sources: w.fused,
		Planner: &Planner{Mode: PlannerForced, ForcePath: ModeWarm}}
	if _, _, err := FuseIncremental(w.ds, st, delta, "AccuPr", badWarm); err == nil {
		t.Fatal("forced warm accepted at zero tolerance")
	}
	// Same contract on the sharded layout.
	_, shd, err := FuseStateful(w.ds, w.snaps[0], "AccuPr", FuseOptions{Sources: w.fused, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	badShd := FuseOptions{Sources: w.fused, Shards: 4,
		Planner: &Planner{Mode: PlannerForced, ForcePath: ModeLocal}}
	if _, _, err := FuseIncremental(w.ds, shd, delta, "AccuPr", badShd); err == nil {
		t.Fatal("forced local accepted on the sharded layout")
	}
}

// TestFuseAutoLayouts covers the layout half of the planner through
// FuseStateful: explicit shards win, an arena budget below the world's
// estimate lays out sharded with a resident bound, and no budget stays
// one shard, recorded as the flat layout. All produce bit-identical
// answers, and FuseIncremental advances each with the plan recorded.
func TestFuseAutoLayouts(t *testing.T) {
	const days = 3
	w := streamWorlds(t, days)[0]
	cases := []struct {
		name     string
		opts     FuseOptions
		layout   PlanLayout
		resident int
	}{
		{"flat default", FuseOptions{Sources: w.fused}, LayoutFlat, 0},
		{"explicit shards", FuseOptions{Sources: w.fused, Shards: 4}, LayoutSharded, 0},
		{"arena budget", FuseOptions{Sources: w.fused,
			Planner: &Planner{Mode: PlannerAuto, ArenaBudgetBytes: 64 << 10}}, LayoutSharded, 1},
		{"huge budget stays flat", FuseOptions{Sources: w.fused,
			Planner: &Planner{Mode: PlannerAuto, ArenaBudgetBytes: 1 << 40}}, LayoutFlat, 0},
	}
	want0, err := Fuse(w.ds, w.snaps[0], "AccuPr", FuseOptions{Sources: w.fused})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		got, st, err := FuseStateful(w.ds, w.snaps[0], "AccuPr", tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sharded := st.st.Sharded.NumShards() > 1; sharded != (tc.layout == LayoutSharded) {
			t.Fatalf("%s: %d shards, want layout %s", tc.name, st.st.Sharded.NumShards(), tc.layout)
		}
		if !reflect.DeepEqual(got, want0) {
			t.Fatalf("%s: day 0 answers differ from Fuse", tc.name)
		}
		if got, err := Fuse(w.ds, w.snaps[0], "AccuPr", tc.opts); err != nil || !reflect.DeepEqual(got, want0) {
			t.Fatalf("%s: Fuse under the same options differs (%v)", tc.name, err)
		}
		for d := 1; d < days; d++ {
			delta, err := w.snaps[d-1].Diff(w.snaps[d])
			if err != nil {
				t.Fatal(err)
			}
			got, st, err = FuseIncremental(w.ds, st, delta, "AccuPr", tc.opts)
			if err != nil {
				t.Fatalf("%s day %d: %v", tc.name, d, err)
			}
			want, err := Fuse(w.ds, w.snaps[d], "AccuPr", FuseOptions{Sources: w.fused})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s day %d: answers differ from full re-fusion", tc.name, d)
			}
			plan := st.Stats.Plan
			if plan == nil || plan.Layout != tc.layout || plan.ResidentShards != tc.resident {
				t.Fatalf("%s day %d: plan %+v, want layout %s with %d resident", tc.name, d, plan, tc.layout, tc.resident)
			}
		}
	}
}

// TestFuseAutoGuards checks the layout-mismatch misuse errors: a state's
// layout is fixed when it is built.
func TestFuseAutoGuards(t *testing.T) {
	w := streamWorlds(t, 2)[0]
	delta, err := w.snaps[0].Diff(w.snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := FuseIncremental(w.ds, nil, delta, "AccuPr", FuseOptions{}); err == nil {
		t.Fatal("nil state accepted")
	}
	_, st, err := FuseStateful(w.ds, w.snaps[0], "AccuPr", FuseOptions{Sources: w.fused})
	if err != nil {
		t.Fatal(err)
	}
	if n := st.st.Sharded.NumShards(); n != 1 {
		t.Fatalf("%d shards, want the one-shard layout", n)
	}
	if _, _, err := FuseIncremental(w.ds, st, delta, "AccuPr",
		FuseOptions{Sources: w.fused, Shards: 4}); err == nil {
		t.Fatal("one-shard state accepted Shards > 1")
	}
}

// TestArenaBudgetCapsShards: an arena budget smaller than one item must
// not lay out more shards than there are items, and the capped layout
// still answers bit-identically to Fuse, on build and on advance.
func TestArenaBudgetCapsShards(t *testing.T) {
	ds, day0, deltas := optionsWorld(t)
	opts := FuseOptions{Planner: &Planner{ArenaBudgetBytes: 1}}
	got, st, err := FuseStateful(ds, day0, "AccuPr", opts)
	if err != nil {
		t.Fatal(err)
	}
	if n, items := st.st.Sharded.NumShards(), day0.NumItems(); n < 2 || n > items {
		t.Fatalf("a 1-byte budget laid out %d shards over %d items", n, items)
	}
	want, err := Fuse(ds, day0, "AccuPr", FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("capped layout answers differ from Fuse")
	}
	got, _, err = FuseIncremental(ds, st, deltas[0], "AccuPr", opts)
	if err != nil {
		t.Fatal(err)
	}
	day1, err := day0.Apply(deltas[0])
	if err != nil {
		t.Fatal(err)
	}
	if want, err = Fuse(ds, day1, "AccuPr", FuseOptions{}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("capped layout advance differs from Fuse")
	}
}
