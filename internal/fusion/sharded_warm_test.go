package fusion

import (
	"fmt"
	"runtime"
	"testing"

	"truthdiscovery/internal/model"
)

// The sharded warm path's contract: on the same snapshot and tolerance
// it is bit-identical to the flat warm path — same global tables, same
// pure per-item posterior kernel, same global-item-order trust fold,
// same drift test — at any shard count and under a resident-arena
// budget.

// TestShardedWarmMatchesFlatWarm advances the same churn stream through
// the flat and the sharded engine with a positive trust tolerance and
// demands the warm path run on both with bitwise-equal results, for a
// global-trust method (AccuPr), a popularity-weighted one (PopAccu) and
// a keyed one (AccuFormatAttr).
func TestShardedWarmMatchesFlatWarm(t *testing.T) {
	ds, snaps := incWorld(t, 13, 4)
	spec := model.RangeShards(4, snaps[0].NumItems())
	const tol = 0.05
	for _, name := range []string{"AccuPr", "PopAccu", "AccuFormatAttr"} {
		for _, maxResident := range []int{0, 1} {
			m, _ := ByName(name)
			opts := Options{}
			inc := IncrementalOptions{TrustTolerance: tol}

			flat := NewState(ds, snaps[0], nil, m, opts)
			shd, err := NewShardedState(ds, snaps[0], nil, spec, m, opts, maxResident)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, fmt.Sprintf("%s resident=%d day 0", name, maxResident), shd.Result, flat.Result)

			for d := 1; d < len(snaps); d++ {
				ctx := fmt.Sprintf("%s resident=%d day %d", name, maxResident, d)
				delta, err := snaps[d-1].Diff(snaps[d])
				if err != nil {
					t.Fatal(err)
				}
				nextFlat, fstats, err := flat.Advance(ds, delta, opts, inc)
				if err != nil {
					t.Fatal(err)
				}
				nextShd, sstats, err := shd.Advance(ds, delta, opts, inc)
				if err != nil {
					t.Fatal(err)
				}
				if fstats.Mode != ModeWarm {
					t.Fatalf("%s: flat mode %s (fallback=%v), want warm", ctx, fstats.Mode, fstats.Fallback)
				}
				if sstats.Mode != ModeWarm {
					t.Fatalf("%s: sharded mode %s (fallback=%v), want warm", ctx, sstats.Mode, sstats.Fallback)
				}
				sameRun(t, ctx, nextShd.Result, nextFlat.Result)
				if sstats.Plan == nil || sstats.Plan.Layout != LayoutSharded {
					t.Fatalf("%s: sharded plan not recorded: %+v", ctx, sstats.Plan)
				}
				if sstats.Plan.Features.DirtyShards < 1 || sstats.Plan.Features.DirtyShards > 4 {
					t.Fatalf("%s: dirty shards %d out of range", ctx, sstats.Plan.Features.DirtyShards)
				}
				flat, shd = nextFlat, nextShd
			}
		}
	}
}

// TestShardedWarmFallsBack pins the drift fallback on the sharded
// engine: a vanishing tolerance must abort the warm attempt and re-run
// the full sharded iteration, bit-identical to a from-scratch fuse of
// the target snapshot.
func TestShardedWarmFallsBack(t *testing.T) {
	ds, snaps := incWorld(t, 17, 2)
	spec := model.RangeShards(4, snaps[0].NumItems())
	m, _ := ByName("AccuPr")
	opts := Options{}
	st, err := NewShardedState(ds, snaps[0], nil, spec, m, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := snaps[0].Diff(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	next, stats, err := st.Advance(ds, delta, opts, IncrementalOptions{TrustTolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != ModeFull || !stats.Fallback {
		t.Fatalf("mode %s fallback %v, want full after fallback", stats.Mode, stats.Fallback)
	}
	if stats.Plan == nil || stats.Plan.Path != ModeFull {
		t.Fatalf("fallback not recorded on the plan: %+v", stats.Plan)
	}
	full := Build(ds, snaps[1], nil, m.Needs())
	sameRun(t, "sharded fallback", next.Result, m.Run(full, opts))
}

// TestShardedDirtyShardFanOut is the planner feature property: the
// DirtyShards the plan reports equals the number of distinct shards the
// delta's dirty items map to, and Delta.Split's per-shard DirtyItems
// partition exactly the delta's DirtyItems.
func TestShardedDirtyShardFanOut(t *testing.T) {
	ds, snaps := incWorld(t, 19, 4)
	spec := model.RangeShards(5, snaps[0].NumItems())
	m, _ := ByName("AccuPr")
	opts := Options{}
	st, err := NewShardedState(ds, snaps[0], nil, spec, m, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d < len(snaps); d++ {
		delta, err := snaps[d-1].Diff(snaps[d])
		if err != nil {
			t.Fatal(err)
		}
		dirty := delta.DirtyItems()
		wantShards := map[int]bool{}
		for _, item := range dirty {
			wantShards[spec.ShardOf(item)] = true
		}

		parts, err := delta.Split(spec)
		if err != nil {
			t.Fatal(err)
		}
		var union []model.ItemID
		for k, part := range parts {
			for _, item := range part.DirtyItems() {
				if spec.ShardOf(item) != k {
					t.Fatalf("day %d: item %d routed to shard %d, owner %d", d, item, k, spec.ShardOf(item))
				}
				union = append(union, item)
			}
		}
		if len(union) != len(dirty) {
			t.Fatalf("day %d: split dirty union %d items, delta has %d", d, len(union), len(dirty))
		}
		inUnion := map[model.ItemID]bool{}
		for _, item := range union {
			inUnion[item] = true
		}
		for _, item := range dirty {
			if !inUnion[item] {
				t.Fatalf("day %d: dirty item %d lost by Split", d, item)
			}
		}

		next, stats, err := st.Advance(ds, delta, opts, IncrementalOptions{Planner: &Planner{Mode: PlannerAuto}})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Plan == nil {
			t.Fatalf("day %d: no plan recorded", d)
		}
		if stats.Plan.Features.DirtyShards != len(wantShards) {
			t.Fatalf("day %d: plan reports %d dirty shards, delta touches %d",
				d, stats.Plan.Features.DirtyShards, len(wantShards))
		}
		if stats.Plan.Features.TotalShards != 5 {
			t.Fatalf("day %d: plan reports %d total shards, want 5", d, stats.Plan.Features.TotalShards)
		}
		st = next
	}
}

// TestShardedWarmAllocatesRebuiltRows pins the warm path's posterior
// memory along a chain of advances: clean items share the previous
// posterior rows, and only the rebuilt items get fresh ones. Each day is
// advanced twice from the same state, forced warm and forced full; both
// pay the same problem update, so the warm advance must allocate less by
// at least half the clean rows' bytes. A warm executor that laid a
// whole-shard posterior arena would allocate as much as the full run,
// and each such arena would stay pinned by its few rebuilt rows across
// the following warm advances.
func TestShardedWarmAllocatesRebuiltRows(t *testing.T) {
	ds, snaps := incWorldSized(t, 23, 6, 480)
	spec := model.RangeShards(7, snaps[0].NumItems())
	m, _ := ByName("AccuPr")
	opts := Options{Parallelism: 1}
	forced := func(path AdvanceMode) IncrementalOptions {
		return IncrementalOptions{TrustTolerance: 1, Planner: &Planner{Mode: PlannerForced, ForcePath: path}}
	}
	st, err := NewShardedState(ds, snaps[0], nil, spec, m, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d < len(snaps); d++ {
		delta, err := snaps[d-1].Diff(snaps[d])
		if err != nil {
			t.Fatal(err)
		}
		fullBytes := allocatedBytes(func() {
			if _, _, err = st.Advance(ds, delta, opts, forced(ModeFull)); err != nil {
				t.Fatal(err)
			}
		})
		var next *ShardedState
		var stats IncrementalStats
		warmBytes := allocatedBytes(func() {
			if next, stats, err = st.Advance(ds, delta, opts, forced(ModeWarm)); err != nil {
				t.Fatal(err)
			}
		})
		if stats.Mode != ModeWarm {
			t.Fatalf("day %d: mode %s, want warm", d, stats.Mode)
		}
		shared := make(map[*float64]bool, len(st.Result.Posteriors))
		for _, row := range st.Result.Posteriors {
			shared[&row[0]] = true
		}
		var cleanBytes, rebuiltBytes int64
		for _, row := range next.Result.Posteriors {
			if shared[&row[0]] {
				cleanBytes += 8 * int64(len(row))
			} else {
				rebuiltBytes += 8 * int64(len(row))
			}
		}
		if rebuiltBytes == 0 || cleanBytes < 2*rebuiltBytes {
			t.Fatalf("day %d: %d clean vs %d rebuilt row bytes; the chain needs low churn", d, cleanBytes, rebuiltBytes)
		}
		if saved := fullBytes - warmBytes; saved < cleanBytes/2 {
			t.Errorf("day %d: warm advance allocated %d bytes, full %d: saved %d, want at least half of the %d clean row bytes",
				d, warmBytes, fullBytes, saved, cleanBytes)
		}
		st = next
	}
}

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}
