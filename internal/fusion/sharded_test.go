package fusion

import (
	"fmt"
	"reflect"
	"testing"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// The sharded engine promises results bit-identical to the flat engine
// at any shard count, resident or under any memory budget. These
// in-package tests assert the contract on the simulated churn world for
// every method (roster and extensions), plus the incremental compose
// (State advances vs from-scratch flat runs) and the arena-residency
// accounting. The cross-package suite
// (sharded_equiv_test.go at the repo root) repeats the core contract on
// the calibrated Stock and Flight worlds under -race.

// shardedSpecs returns the spec/budget combinations under test for an
// item table of the given size.
func shardedSpecs(numItems int) []struct {
	name        string
	spec        model.ShardSpec
	maxResident int
} {
	return []struct {
		name        string
		spec        model.ShardSpec
		maxResident int
	}{
		{"range1", model.RangeShards(1, numItems), 0},
		{"range2", model.RangeShards(2, numItems), 0},
		{"range7", model.RangeShards(7, numItems), 0},
		{"rangeMax", model.RangeShards(0, numItems), 0}, // patched to GOMAXPROCS below
		{"budget7r1", model.RangeShards(7, numItems), 1},
		{"budget7r3", model.RangeShards(7, numItems), 3},
	}
}

func sameShardedResult(t *testing.T, ctx string, flat, sharded *Result) {
	t.Helper()
	if flat.Rounds != sharded.Rounds || flat.Converged != sharded.Converged {
		t.Fatalf("%s: rounds/converged %d/%v vs %d/%v",
			ctx, flat.Rounds, flat.Converged, sharded.Rounds, sharded.Converged)
	}
	if !reflect.DeepEqual(flat.Chosen, sharded.Chosen) {
		t.Fatalf("%s: chosen differ", ctx)
	}
	if !reflect.DeepEqual(flat.Trust, sharded.Trust) {
		t.Fatalf("%s: trust differs\n%v\nvs\n%v", ctx, flat.Trust, sharded.Trust)
	}
	if !reflect.DeepEqual(flat.AttrTrust, sharded.AttrTrust) {
		t.Fatalf("%s: attr trust differs", ctx)
	}
	if (flat.Posteriors == nil) != (sharded.Posteriors == nil) {
		t.Fatalf("%s: posteriors presence differs", ctx)
	}
	if flat.Posteriors != nil {
		if len(flat.Posteriors) != len(sharded.Posteriors) {
			t.Fatalf("%s: posterior rows %d vs %d", ctx, len(flat.Posteriors), len(sharded.Posteriors))
		}
		for i := range flat.Posteriors {
			if !reflect.DeepEqual(flat.Posteriors[i], sharded.Posteriors[i]) {
				t.Fatalf("%s: posteriors[%d] differ", ctx, i)
			}
		}
	}
}

// TestShardedBitIdentical is the in-package acceptance contract: every
// method of the roster (plus the Section 5 extensions) produces
// bit-identical answers, trust vectors, posteriors and round counts at
// every tested shard count and memory budget.
func TestShardedBitIdentical(t *testing.T) {
	ds, snaps := incWorld(t, 5, 1)
	snap := snaps[0]
	methods := append(Methods(), ExtensionMethods()...)
	for _, m := range methods {
		needs := m.Needs()
		flat := m.Run(Build(ds, snap, nil, needs), Options{})
		for _, tc := range shardedSpecs(snap.NumItems()) {
			spec := tc.spec
			if spec.Shards == 0 {
				spec.Shards = 4
			}
			// Parallelism 4 forces the shard-concurrent fan-out even on a
			// single-core host (workers > 1, shards >= workers for the
			// 7-shard specs); serial and concurrent must both equal flat.
			for _, par := range []int{1, 4} {
				res, _, err := FuseSharded(ds, snap, nil, spec, m, Options{Parallelism: par}, tc.maxResident)
				if err != nil {
					t.Fatalf("%s/%s/par%d: %v", m.Name(), tc.name, par, err)
				}
				sameShardedResult(t, fmt.Sprintf("%s/%s/par%d", m.Name(), tc.name, par), flat, res)
			}
		}
	}
}

// TestShardedKnownGroups checks the ACCUCOPY known-groups path maps
// choices back to the unfiltered indexing exactly as the flat engine.
func TestShardedKnownGroups(t *testing.T) {
	ds, snaps := incWorld(t, 6, 1)
	snap := snaps[0]
	groups := [][]model.SourceID{{2, 3, 4}, {10, 11}}
	opts := Options{KnownGroups: groups}
	m := methodNamed("AccuCopy")
	flat := m.Run(Build(ds, snap, nil, m.Needs()), opts)
	for _, spec := range []model.ShardSpec{
		model.RangeShards(1, snap.NumItems()),
		model.RangeShards(3, snap.NumItems()),
	} {
		res, _, err := FuseSharded(ds, snap, nil, spec, m, opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(flat.Chosen, res.Chosen) {
			t.Fatalf("%d shards: known-groups chosen differ", spec.Shards)
		}
		if !reflect.DeepEqual(flat.Trust, res.Trust) {
			t.Fatalf("%d shards: known-groups trust differs", spec.Shards)
		}
	}
}

// TestShardedInputTrust checks the sampled-trust path (no estimation
// loop) stays bit-identical too.
func TestShardedInputTrust(t *testing.T) {
	ds, snaps := incWorld(t, 7, 1)
	snap := snaps[0]
	for _, m := range []Method{methodNamed("Hub"), methodNamed("2-Estimates"), methodNamed("AccuFormatAttr"), methodNamed("TruthFinder")} {
		p := Build(ds, snap, nil, m.Needs())
		input := make([]float64, len(p.SourceIDs))
		for s := range input {
			input[s] = 0.3 + 0.6*float64(s%7)/7
		}
		opts := Options{InputTrust: input}
		flat := m.Run(p, opts)
		res, _, err := FuseSharded(ds, snap, nil, model.RangeShards(5, snap.NumItems()), m, opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameShardedResult(t, m.Name()+"/inputTrust", flat, res)
	}
}

// TestShardedStateAdvance is the incremental compose contract: routing
// each day's delta to the shards and advancing them independently
// produces answers and trust bit-identical to full flat fusion of every
// day's snapshot, for the item-local path (Vote), the ACCU family and a
// rescaling method, at one shard and at many, under both residency
// policies.
func TestShardedStateAdvance(t *testing.T) {
	const days = 4
	ds, snaps := incWorld(t, 9, days)
	numItems := snaps[0].NumItems()
	for _, tc := range []struct {
		name        string
		spec        model.ShardSpec
		maxResident int
	}{
		{"range3", model.RangeShards(3, numItems), 0},
		{"range1", model.RangeShards(1, numItems), 0},
		{"budget4r1", model.RangeShards(4, numItems), 1},
	} {
		for _, m := range []Method{methodNamed("Vote"), methodNamed("AccuPr"), methodNamed("AccuFormatAttr"), methodNamed("2-Estimates")} {
			st, err := NewState(ds, snaps[0], nil, tc.spec, m, Options{}, tc.maxResident)
			if err != nil {
				t.Fatal(err)
			}
			for d := 1; d < days; d++ {
				delta, err := snaps[d-1].Diff(snaps[d])
				if err != nil {
					t.Fatal(err)
				}
				next, stats, err := st.Advance(ds, delta, Options{}, IncrementalOptions{})
				if err != nil {
					t.Fatalf("%s/%s day %d: %v", tc.name, m.Name(), d, err)
				}
				flat := m.Run(Build(ds, snaps[d], nil, m.Needs()), Options{})
				ctx := tc.name + "/" + m.Name()
				if !reflect.DeepEqual(flat.Chosen, next.Result.Chosen) {
					t.Fatalf("%s day %d: chosen differ (mode %s)", ctx, d, stats.Mode)
				}
				if m.Name() != "Vote" {
					if !reflect.DeepEqual(flat.Trust, next.Result.Trust) {
						t.Fatalf("%s day %d: trust differs", ctx, d)
					}
					if flat.Rounds != next.Result.Rounds {
						t.Fatalf("%s day %d: rounds %d vs %d", ctx, d, flat.Rounds, next.Result.Rounds)
					}
				}
				if m.Name() == "Vote" && stats.Mode != ModeLocal {
					t.Fatalf("%s day %d: mode %s, want local", ctx, d, stats.Mode)
				}
				if stats.TotalItems == 0 || stats.DirtyItems < 0 || stats.DirtyItems > stats.TotalItems {
					t.Fatalf("%s day %d: bad stats %+v", ctx, d, stats)
				}
				st = next
			}
		}
	}
}

// TestShardedStateAdvanceUntouchedShards pins the carry-forward fast
// path: a delta confined to one shard leaves the other shards' parts
// (snapshots, arenas, metadata) carried over unchanged, and the results
// still match flat fusion of the target snapshot exactly.
func TestShardedStateAdvanceUntouchedShards(t *testing.T) {
	ds, snaps := incWorld(t, 9, 1)
	base := snaps[0]
	// Target: only the first claimed item changes — every other shard's
	// split delta is empty.
	var claims []model.Claim
	for _, c := range base.Claims {
		claims = append(claims, c)
	}
	claims[0].Val = value.Num(claims[0].Val.Num + 5)
	target := model.NewSnapshot(1, "day1", base.NumItems(), claims)
	delta, err := base.Diff(target)
	if err != nil {
		t.Fatal(err)
	}
	spec := model.RangeShards(4, base.NumItems())
	if got := spec.ShardOf(delta.DirtyItems()[0]); got != 0 {
		t.Fatalf("test delta landed on shard %d, want 0", got)
	}

	for _, m := range []Method{methodNamed("Vote"), methodNamed("AccuPr")} {
		st, err := NewState(ds, base, nil, spec, m, Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		next, stats, err := st.Advance(ds, delta, Options{}, IncrementalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Untouched shards share their part state with the previous
		// generation (pointer-equal snapshots), touched shard 0 does not.
		for k := 1; k < 4; k++ {
			if next.Sharded.parts[k].snap != st.Sharded.parts[k].snap {
				t.Fatalf("%s: untouched shard %d was rebuilt", m.Name(), k)
			}
		}
		if next.Sharded.parts[0].snap == st.Sharded.parts[0].snap {
			t.Fatalf("%s: touched shard 0 was not advanced", m.Name())
		}
		flat := m.Run(Build(ds, target, nil, m.Needs()), Options{})
		if !reflect.DeepEqual(flat.Chosen, next.Result.Chosen) {
			t.Fatalf("%s: chosen differ after sparse advance (mode %s)", m.Name(), stats.Mode)
		}
		if !reflect.DeepEqual(flat.Trust, next.Result.Trust) {
			t.Fatalf("%s: trust differs after sparse advance", m.Name())
		}
		// The old state stays valid and re-advanceable (carry-forward must
		// not alias the rewritten global structures).
		again, _, err := st.Advance(ds, delta, Options{}, IncrementalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Result.Chosen, next.Result.Chosen) {
			t.Fatalf("%s: re-advancing the old state diverged", m.Name())
		}
	}
}

// TestShardedResidencyAccounting pins the memory-budget claim itself:
// under maxResident=1 the peak resident arena bytes stay below the flat
// (all-resident) total whenever the world splits into comparable shards.
func TestShardedResidencyAccounting(t *testing.T) {
	ds, snaps := incWorld(t, 5, 1)
	snap := snaps[0]
	const shards = 8
	spec := model.RangeShards(shards, snap.NumItems())
	m := methodNamed("AccuFormatAttr")

	_, resident, err := FuseSharded(ds, snap, nil, spec, m, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	total, maxShard := resident.ArenaBytes()
	if total <= 0 || maxShard <= 0 || maxShard >= total {
		t.Fatalf("degenerate arena accounting: total %d, max shard %d", total, maxShard)
	}
	if resident.PeakResidentBytes() != total {
		t.Fatalf("resident peak %d, want full total %d", resident.PeakResidentBytes(), total)
	}

	_, budgeted, err := FuseSharded(ds, snap, nil, spec, m, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	peak := budgeted.PeakResidentBytes()
	if peak >= total {
		t.Fatalf("budgeted peak %d did not drop below flat total %d", peak, total)
	}
	// One pinned shard plus one transient shard at most.
	if limit := 2 * maxShard * 3 / 2; peak > limit {
		t.Fatalf("budgeted peak %d exceeds ~two shard arenas (%d)", peak, limit)
	}
}

// TestShardedBudgetRebuilds pins how often the memory budget rebuilds
// an evicted shard (MaxResident 1 over 7 range shards: 6 evicted). A
// round's phase and fold share one shard-by-shard sweep, so it costs one
// rebuild per evicted shard; 2-/3-ESTIMATES pay one more per phase,
// since the global rescale separates their phases from the fold. The
// keyed ACCU finish adds one sweep, and ACCUCOPY a seed sweep plus two
// detection sweeps per round (4 rounds here, before detection freezes
// after round 8). The executor defers its phases to keep these counts.
func TestShardedBudgetRebuilds(t *testing.T) {
	ds, snaps := incWorld(t, 5, 1)
	snap := snaps[0]
	const evicted = 6
	spec := model.RangeShards(evicted+1, snap.NumItems())
	for _, tc := range []struct {
		m               Method
		perRound, extra int
	}{
		{methodNamed("Vote"), 0, 0},
		{methodNamed("AccuPr"), 1, 0},
		{methodNamed("Hub"), 1, 0},
		{methodNamed("Cosine"), 1, 0},
		{methodNamed("TruthFinder"), 1, 0},
		{methodNamed("2-Estimates"), 2, 0},
		{methodNamed("3-Estimates"), 3, 0},
		{methodNamed("AccuFormatAttr"), 1, 1},
		{methodNamed("AccuCopy"), 3, 1},
	} {
		res, sp, err := FuseSharded(ds, snap, nil, spec, tc.m, Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := evicted * (tc.perRound*res.Rounds + tc.extra); sp.rebuilds != want {
			t.Errorf("%s: %d rebuilds over %d rounds, want %d", tc.m.Name(), sp.rebuilds, res.Rounds, want)
		}
	}
}

// TestShardedProblemShape sanity-checks the assembled structures: the
// shards enumerate every claimed item exactly once in ascending ItemID
// order, and the global claim counts match the flat problem's.
func TestShardedProblemShape(t *testing.T) {
	ds, snaps := incWorld(t, 5, 1)
	snap := snaps[0]
	flat := Build(ds, snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	for _, spec := range []model.ShardSpec{
		model.RangeShards(1, snap.NumItems()),
		model.RangeShards(4, snap.NumItems()),
	} {
		sp, err := BuildSharded(ds, snap, nil, spec, 0, spec.Shards,
			BuildOptions{NeedSimilarity: true, NeedFormat: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sp.NumItems() != len(flat.Items) {
			t.Fatalf("%d shards: %d items, want %d", spec.Shards, sp.NumItems(), len(flat.Items))
		}
		if !reflect.DeepEqual(sp.ClaimsPerSource, flat.ClaimsPerSource) {
			t.Fatalf("%d shards: global claim counts differ", spec.Shards)
		}
		g := 0
		sp.ForEachItem(func(gi int, it *ProblemItem) {
			if gi != g {
				t.Fatalf("%d shards: walk order broke at %d", spec.Shards, gi)
			}
			if !reflect.DeepEqual(*it, flat.Items[g]) {
				t.Fatalf("%d shards: item %d differs from flat problem", spec.Shards, g)
			}
			g++
		})
		if g != len(flat.Items) {
			t.Fatalf("%d shards: walked %d items, want %d", spec.Shards, g, len(flat.Items))
		}
	}
}
