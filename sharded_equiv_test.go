package truthdiscovery

import (
	"reflect"
	"runtime"
	"testing"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
)

// The sharded engine's acceptance contract: fusion over any shard count
// — 1, 2, 7, GOMAXPROCS — produces answers, trust vectors and
// posteriors bit-identical to unsharded Fuse for all sixteen methods on
// the calibrated Stock and Flight worlds. CI runs this suite
// under -race, which additionally proves the shard fan-out is data-race
// free.

// shardCounts returns the acceptance shard counts.
func shardCounts() []int {
	counts := []int{1, 2, 7}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 7 {
		counts = append(counts, g)
	}
	return counts
}

// TestFuseShardedBitIdentical asserts the contract method by method and
// world by world, for range sharding (the production default) at every
// acceptance shard count.
func TestFuseShardedBitIdentical(t *testing.T) {
	for _, w := range equivWorlds(t) {
		for _, m := range fusion.Methods() {
			needs := m.Needs()
			flat := m.Run(fusion.Build(w.ds, w.snap, w.fused, needs), fusion.Options{})
			for _, shards := range shardCounts() {
				spec := model.RangeShards(shards, w.snap.NumItems())
				res, sp, err := fusion.FuseSharded(w.ds, w.snap, w.fused, spec, m, fusion.Options{}, 0)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", w.name, m.Name(), shards, err)
				}
				if sp.NumShards() != shards {
					t.Fatalf("%s/%s: %d shards, want %d", w.name, m.Name(), sp.NumShards(), shards)
				}
				ctx := w.name + "/" + m.Name()
				sameResults(t, ctx, flat, res)
				if !reflect.DeepEqual(flat.Posteriors, res.Posteriors) {
					t.Fatalf("%s/%d shards: posteriors differ", ctx, shards)
				}
			}
		}
	}
}

// TestFuseShardedConcurrentAndBudget extends the contract to the
// shard-concurrent fan-out (resident mode) and to the memory-budget
// sequential mode (-max-resident-shards 1) on a fusion-heavy subset of
// the roster.
func TestFuseShardedConcurrentAndBudget(t *testing.T) {
	w := equivWorlds(t)[0] // Stock
	for _, name := range []string{"Vote", "Cosine", "3-Estimates", "AccuFormatAttr", "AccuCopy"} {
		m, ok := fusion.ByName(name)
		if !ok {
			t.Fatalf("unknown method %s", name)
		}
		flat := m.Run(fusion.Build(w.ds, w.snap, w.fused, m.Needs()), fusion.Options{})
		for _, tc := range []struct {
			label       string
			spec        model.ShardSpec
			maxResident int
			parallelism int
		}{
			{"range5", model.RangeShards(5, w.snap.NumItems()), 0, 0},
			// Parallelism 4 < shards forces the shard-concurrent fan-out
			// even on a single-core host.
			{"range5par4", model.RangeShards(5, w.snap.NumItems()), 0, 4},
			{"range6budget1", model.RangeShards(6, w.snap.NumItems()), 1, 0},
		} {
			res, _, err := fusion.FuseSharded(w.ds, w.snap, w.fused, tc.spec, m,
				fusion.Options{Parallelism: tc.parallelism}, tc.maxResident)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tc.label, err)
			}
			sameResults(t, name+"/"+tc.label, flat, res)
		}
	}
}

// TestShardedIncrementalStream composes sharding with the delta stream
// on the internal surface: a four-shard fusion.State advanced over the
// simulated Stock day-over-day deltas must match full flat fusion of
// every day.
func TestShardedIncrementalStream(t *testing.T) {
	const days = 3
	w := streamWorlds(t, days)[0] // Stock
	spec := model.RangeShards(4, w.snaps[0].NumItems())
	for _, name := range []string{"Vote", "AccuPr", "AccuFormatAttr"} {
		m, _ := fusion.ByName(name)
		st, err := fusion.NewState(w.ds, w.snaps[0], w.fused, spec, m, fusion.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d < days; d++ {
			delta, err := w.snaps[d-1].Diff(w.snaps[d])
			if err != nil {
				t.Fatal(err)
			}
			next, stats, err := st.Advance(w.ds, delta, fusion.Options{}, fusion.IncrementalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			flat := m.Run(fusion.Build(w.ds, w.snaps[d], w.fused, m.Needs()), fusion.Options{})
			if !reflect.DeepEqual(flat.Chosen, next.Result.Chosen) {
				t.Fatalf("%s day %d: sharded incremental chosen differ (mode %s)", name, d, stats.Mode)
			}
			if !reflect.DeepEqual(flat.Trust, next.Result.Trust) {
				t.Fatalf("%s day %d: sharded incremental trust differs", name, d)
			}
			st = next
		}
	}
}

// TestPublicFuseSharded exercises the public API: Fuse over any shard
// count must answer exactly as the one-shard Fuse, and the options are
// validated.
func TestPublicFuseSharded(t *testing.T) {
	w := equivWorlds(t)[1] // Flight
	want, err := Fuse(w.ds, w.snap, "AccuFormatAttr", FuseOptions{Sources: w.fused})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 8} {
		got, err := Fuse(w.ds, w.snap, "AccuFormatAttr", FuseOptions{
			Sources: w.fused, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: public sharded answers differ from Fuse", shards)
		}
	}
	// Budget mode drops the ceiling but not the answers.
	got, err := Fuse(w.ds, w.snap, "AccuFormatAttr", FuseOptions{
		Sources: w.fused, Shards: 6, MaxResidentShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("budgeted public sharded answers differ from Fuse")
	}
	if _, err := Fuse(w.ds, w.snap, "NoSuchMethod", FuseOptions{Shards: 2}); err == nil {
		t.Fatal("unknown method accepted")
	}
	// Sampled-trust runs (Gold) stay bit-identical too — and the sharded
	// path samples from the roster without building a flat problem.
	goldWant, err := Fuse(w.ds, w.snap, "Hub", FuseOptions{Sources: w.fused, Gold: w.gld})
	if err != nil {
		t.Fatal(err)
	}
	goldGot, err := Fuse(w.ds, w.snap, "Hub", FuseOptions{
		Sources: w.fused, Gold: w.gld, Shards: 5, MaxResidentShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(goldGot, goldWant) {
		t.Fatal("sharded Gold answers differ from Fuse")
	}
	// One shard with Gold and known copy groups answers exactly as the
	// problem-level pipeline: Build, SampleAccuracy, Method.Run.
	groups := [][]SourceID{{w.fused[0], w.fused[1], w.fused[2]}, {w.fused[5], w.fused[6]}}
	m, _ := fusion.ByName("AccuCopy")
	p := fusion.Build(w.ds, w.snap, w.fused, m.Needs())
	direct := m.Run(p, fusion.Options{
		KnownGroups:    groups,
		InputTrust:     m.TrustScale(fusion.SampleAccuracy(w.ds, w.snap, p, w.gld)),
		InputAttrTrust: fusion.SampleAttrAccuracy(w.ds, w.snap, p, w.gld),
	})
	copyGot, err := Fuse(w.ds, w.snap, "AccuCopy", FuseOptions{Sources: w.fused, Gold: w.gld, KnownCopyGroups: groups})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(copyGot, fusion.AnswersFor(w.ds, p, direct)) {
		t.Fatal("one-shard Gold + KnownCopyGroups answers differ from the problem-level pipeline")
	}
	// An empty world fuses to empty answers on both engines (sharding is
	// purely an execution choice, including at the boundary).
	eb := NewBuilder("empty")
	eb.Attribute("price", Number)
	eds, esnap, err := eb.Build()
	if err != nil {
		t.Fatal(err)
	}
	emptyFlat, err := Fuse(eds, esnap, "AccuPr", FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	emptySharded, err := Fuse(eds, esnap, "AccuPr", FuseOptions{Shards: 4})
	if err != nil {
		t.Fatalf("sharded empty world: %v", err)
	}
	if len(emptyFlat) != 0 || len(emptySharded) != 0 {
		t.Fatalf("empty world answered: flat %d, sharded %d", len(emptyFlat), len(emptySharded))
	}
}
