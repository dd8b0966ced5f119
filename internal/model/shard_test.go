package model

import (
	"math/rand"
	"reflect"
	"testing"

	"truthdiscovery/internal/value"
)

// specsFor returns range specs at several shard counts for an item
// table of the given size.
func specsFor(numItems int) []ShardSpec {
	var out []ShardSpec
	for _, n := range []int{1, 2, 3, 7} {
		out = append(out, RangeShards(n, numItems))
	}
	return out
}

// TestShardOfStable pins the assignment function: ShardOf is a pure,
// monotone function of (spec, item) — two identical specs agree item by
// item, and shard order is item order — so a few concrete assignments
// are pinned too.
func TestShardOfStable(t *testing.T) {
	const numItems = 1000
	for _, sp := range specsFor(numItems) {
		dup := ShardSpec{Shards: sp.Shards, NumItems: sp.NumItems}
		prev := 0
		for item := 0; item < numItems; item++ {
			k := sp.ShardOf(ItemID(item))
			if k < 0 || k >= sp.Shards || k < prev {
				t.Fatalf("%d shards: item %d mapped to shard %d after shard %d", sp.Shards, item, k, prev)
			}
			if dup.ShardOf(ItemID(item)) != k {
				t.Fatalf("%d shards: item %d not stable across spec copies", sp.Shards, item)
			}
			prev = k
		}
	}

	// Range boundaries are i*NumItems/Shards: monotone, contiguous, and
	// every shard non-empty when NumItems >= Shards.
	rs := RangeShards(3, 9)
	for item, want := range []int{0, 0, 0, 1, 1, 1, 2, 2, 2} {
		if got := rs.ShardOf(ItemID(item)); got != want {
			t.Fatalf("range ShardOf(%d) = %d, want %d", item, got, want)
		}
	}
}

// TestShardSpecValidate checks the misuse guards.
func TestShardSpecValidate(t *testing.T) {
	for _, sp := range []ShardSpec{
		{},
		{Shards: 0, NumItems: 10},
		{Shards: 2, NumItems: -1},
	} {
		if err := sp.Validate(); err == nil {
			t.Fatalf("spec %+v validated", sp)
		}
	}
	// An empty item table is legal: every shard is empty.
	if err := RangeShards(2, 0).Validate(); err != nil {
		t.Fatalf("empty-world spec rejected: %v", err)
	}
	empty := NewSnapshot(0, "empty", 0, nil)
	shards, err := empty.Shard(RangeShards(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	for k, sh := range shards {
		if sh.NumClaims() != 0 {
			t.Fatalf("empty-world shard %d has claims", k)
		}
	}
	snap := snapOf(t, 0, "d", 8, []Claim{c(0, 1, 5)})
	if _, err := snap.Shard(RangeShards(2, 99)); err == nil {
		t.Fatal("spec/item-table mismatch accepted by Shard")
	}
	d, _ := snap.Diff(snap)
	if _, err := d.Split(RangeShards(2, 99)); err == nil {
		t.Fatal("spec/item-table mismatch accepted by Split")
	}
}

// TestSnapshotShardPartition checks that Shard is an exact partition:
// each claim lands on its item's shard, claim order inside a shard is
// the snapshot order, and re-interleaving the shards yields the
// original claim list.
func TestSnapshotShardPartition(t *testing.T) {
	const numItems = 40
	rng := rand.New(rand.NewSource(7))
	var claims []Claim
	for item := 0; item < numItems; item++ {
		for src := 0; src < 9; src++ {
			if rng.Intn(3) == 0 {
				claims = append(claims, c(SourceID(src), ItemID(item), float64(rng.Intn(50))))
			}
		}
	}
	snap := NewSnapshot(3, "d3", numItems, claims)

	for _, sp := range specsFor(numItems) {
		shards, err := snap.Shard(sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != sp.Shards {
			t.Fatalf("%d shards: %d shards", sp.Shards, len(shards))
		}
		total := 0
		for k, sh := range shards {
			if sh.Day != snap.Day || sh.Label != snap.Label || sh.NumItems() != numItems {
				t.Fatalf("%d shards: shard %d identity %d %q %d", sp.Shards, k, sh.Day, sh.Label, sh.NumItems())
			}
			total += sh.NumClaims()
			for _, cl := range sh.Claims {
				if got := sp.ShardOf(cl.Item); got != k {
					t.Fatalf("%d shards: claim on item %d in shard %d, ShardOf says %d",
						sp.Shards, cl.Item, k, got)
				}
			}
		}
		if total != snap.NumClaims() {
			t.Fatalf("%d shards: %d claims across shards, want %d", sp.Shards, total, snap.NumClaims())
		}
		// Per-item claim slices are identical on the owning shard, and the
		// shard's index agrees with the full snapshot's.
		for item := 0; item < numItems; item++ {
			want := snap.ItemClaims(ItemID(item))
			got := shards[sp.ShardOf(ItemID(item))].ItemClaims(ItemID(item))
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d shards: item %d claims differ on its shard", sp.Shards, item)
			}
		}
	}
}

// mutateClaims derives a random target claim set from a base (changes,
// retractions, additions), shared by the split property tests.
func mutateClaims(rng *rand.Rand, base *Snapshot, numItems, numSources int) []Claim {
	var target []Claim
	seen := make(map[[2]int32]bool)
	for _, cl := range base.Claims {
		seen[[2]int32{int32(cl.Item), int32(cl.Source)}] = true
		switch rng.Intn(10) {
		case 0: // retract
		case 1, 2: // change value
			cl.Val = value.Num(cl.Val.Num + 1 + float64(rng.Intn(5)))
			target = append(target, cl)
		default:
			target = append(target, cl)
		}
	}
	for k := 0; k < 25; k++ {
		item, src := int32(rng.Intn(numItems)), int32(rng.Intn(numSources))
		if seen[[2]int32{item, src}] {
			continue
		}
		seen[[2]int32{item, src}] = true
		target = append(target, c(SourceID(src), ItemID(item), float64(rng.Intn(50))))
	}
	return target
}

// checkSplitReassembles asserts the routing property for one (base,
// delta, spec): applying the delta's shard k to the base's shard k
// reproduces the target's shard k exactly — Split + per-shard Apply
// commutes with full Apply + Shard.
func checkSplitReassembles(t *testing.T, base, targetFull *Snapshot, d *Delta, sp ShardSpec) {
	t.Helper()
	baseShards, err := base.Shard(sp)
	if err != nil {
		t.Fatal(err)
	}
	targetShards, err := targetFull.Shard(sp)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.Split(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := 0; true {
		for _, p := range parts {
			got += p.Size()
		}
		if got != d.Size() {
			t.Fatalf("%d shards: split ops %d, want %d", sp.Shards, got, d.Size())
		}
	}
	for k := range parts {
		applied, err := baseShards[k].Apply(parts[k])
		if err != nil {
			t.Fatalf("%d shards, shard %d: %v", sp.Shards, k, err)
		}
		if !reflect.DeepEqual(claimList(applied), claimList(targetShards[k])) {
			t.Fatalf("%d shards, shard %d: per-shard apply diverged from sharded target",
				sp.Shards, k)
		}
		// Dirty worklists partition too: shard k's dirty items are exactly
		// the full delta's dirty items that map to shard k.
		var want []ItemID
		for _, it := range d.DirtyItems() {
			if sp.ShardOf(it) == k {
				want = append(want, it)
			}
		}
		got := parts[k].DirtyItems()
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards, shard %d: dirty items %v, want %v", sp.Shards, k, got, want)
		}
	}
}

// TestDeltaSplitReassembles is the randomised routing property over many
// worlds and several shard counts, for Diff-produced (sorted) deltas.
func TestDeltaSplitReassembles(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const numItems, numSources = 60, 10
	for trial := 0; trial < 25; trial++ {
		var baseClaims []Claim
		for item := 0; item < numItems; item++ {
			for src := 0; src < numSources; src++ {
				if rng.Intn(3) == 0 {
					baseClaims = append(baseClaims, c(SourceID(src), ItemID(item), float64(rng.Intn(50))))
				}
			}
		}
		base := NewSnapshot(0, "base", numItems, baseClaims)
		target := NewSnapshot(1, "target", numItems, mutateClaims(rng, base, numItems, numSources))
		d, err := base.Diff(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range specsFor(numItems) {
			checkSplitReassembles(t, base, target, d, sp)
		}
	}
}

// TestDeltaSplitHandAssembled checks the property holds for unsorted
// hand-assembled deltas too (the sorted flag must not leak onto splits
// of unverified deltas).
func TestDeltaSplitHandAssembled(t *testing.T) {
	const n = 16
	base := snapOf(t, 0, "d0", n, []Claim{
		c(0, 1, 5), c(1, 2, 6), c(0, 4, 9), c(2, 9, 3), c(1, 14, 8),
	})
	d := &Delta{
		ToDay: 1, ToLabel: "d1", NumItems: n,
		Added:     []Claim{c(2, 8, 3), c(2, 0, 1), c(0, 15, 2)},
		Retracted: []Claim{c(0, 4, 9)},
		Changed:   []ValueChange{{Old: c(1, 14, 8), New: c(1, 14, 8.5)}, {Old: c(0, 1, 5), New: c(0, 1, 5.5)}},
	}
	targetFull, err := base.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specsFor(n) {
		checkSplitReassembles(t, base, targetFull, d, sp)
	}
}

// FuzzDeltaSplit fuzzes the routing property: arbitrary seeds drive the
// world, the churn and the spec, and the reassembly must hold exactly.
func FuzzDeltaSplit(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(9), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, shards uint8) {
		if shards == 0 {
			shards = 1
		}
		rng := rand.New(rand.NewSource(seed))
		const numItems, numSources = 30, 6
		var baseClaims []Claim
		for item := 0; item < numItems; item++ {
			for src := 0; src < numSources; src++ {
				if rng.Intn(3) == 0 {
					baseClaims = append(baseClaims, c(SourceID(src), ItemID(item), float64(rng.Intn(20))))
				}
			}
		}
		base := NewSnapshot(0, "base", numItems, baseClaims)
		target := NewSnapshot(1, "target", numItems, mutateClaims(rng, base, numItems, numSources))
		d, err := base.Diff(target)
		if err != nil {
			t.Fatal(err)
		}
		checkSplitReassembles(t, base, target, d, RangeShards(int(shards), numItems))
	})
}

// TestOneShardAliases pins the one-shard layout's zero-copy contract:
// Shard and Split return their receiver, so a one-shard fused state
// works on the caller's snapshot and delta directly.
func TestOneShardAliases(t *testing.T) {
	base := snapOf(t, 0, "d0", 8, []Claim{c(0, 1, 5), c(1, 2, 6), c(0, 4, 9)})
	target := snapOf(t, 1, "d1", 8, []Claim{c(0, 1, 5), c(1, 2, 7)})
	d, err := base.Diff(target)
	if err != nil {
		t.Fatal(err)
	}
	sp := RangeShards(1, 8)
	shards, err := base.Shard(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[0] != base {
		t.Fatal("one-shard Shard copied the snapshot")
	}
	parts, err := d.Split(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || parts[0] != d {
		t.Fatal("one-shard Split copied the delta")
	}
	if _, err := d.Split(RangeShards(1, 9)); err == nil {
		t.Fatal("one-shard Split skipped the item-table check")
	}
}
