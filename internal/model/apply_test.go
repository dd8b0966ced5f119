package model

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"truthdiscovery/internal/value"
)

// TestApplyRejectsMalformedDeltas: every malformed delta is an error,
// never a panic or a snapshot whose views hold another item's claims.
func TestApplyRejectsMalformedDeltas(t *testing.T) {
	base := snapOf(t, 0, "d0", 4, []Claim{c(0, 0, 1), c(1, 1, 2), c(0, 2, 3), c(2, 3, 4)})
	marked := func(d *Delta) *Delta { d.MarkSorted(); return d }
	cases := []struct {
		name string
		d    *Delta
	}{
		{"added item past the table", &Delta{NumItems: 4, Added: []Claim{c(0, 9, 1)}}},
		{"marked added item past the table", marked(&Delta{NumItems: 4, Added: []Claim{c(0, 9, 1)}})},
		{"added negative item", &Delta{NumItems: 4, Added: []Claim{c(0, -1, 1)}}},
		{"retracted item past the table", &Delta{NumItems: 4, Retracted: []Claim{c(0, 4, 1)}}},
		{"change moves the item", &Delta{NumItems: 4,
			Changed: []ValueChange{{Old: c(1, 1, 2), New: c(1, 3, 2)}}}},
		{"change moves the source", &Delta{NumItems: 4,
			Changed: []ValueChange{{Old: c(1, 1, 2), New: c(3, 1, 2)}}}},
		{"marked added out of item order", marked(&Delta{NumItems: 4,
			Added: []Claim{c(1, 2, 5), c(1, 0, 6)}})},
		{"marked added out of source order", marked(&Delta{NumItems: 4,
			Added: []Claim{c(3, 0, 5), c(1, 0, 6)}})},
		{"marked retracted twice", marked(&Delta{NumItems: 4,
			Retracted: []Claim{c(0, 0, 1), c(0, 0, 1)}})},
		{"marked changes out of order", marked(&Delta{NumItems: 4, Changed: []ValueChange{
			{Old: c(2, 3, 4), New: c(2, 3, 5)}, {Old: c(1, 1, 2), New: c(1, 1, 7)}}})},
		{"retract and change one claim", &Delta{NumItems: 4,
			Retracted: []Claim{c(0, 0, 1)}, Changed: []ValueChange{{Old: c(0, 0, 1), New: c(0, 0, 2)}}}},
		{"retracts more than the base holds", &Delta{NumItems: 4,
			Retracted: []Claim{c(0, 0, 1), c(1, 0, 1), c(2, 0, 1), c(3, 0, 1), c(4, 0, 1)}}},
	}
	want := base.Digest()
	for _, tc := range cases {
		if got, err := base.Apply(tc.d); err == nil {
			t.Errorf("%s: accepted, item views %v", tc.name, got.items)
		}
		if base.Digest() != want {
			t.Fatalf("%s: the failed Apply changed its base", tc.name)
		}
	}

	// The same out-of-order list, unmarked, is sorted and applies.
	d := &Delta{ToDay: 1, NumItems: 4, Added: []Claim{c(1, 2, 5), c(1, 0, 6)}}
	got, err := base.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if w := []Claim{c(0, 0, 1), c(1, 0, 6)}; !reflect.DeepEqual(got.ItemClaims(0), w) {
		t.Fatalf("item 0 claims %v, want %v", got.ItemClaims(0), w)
	}
}

// TestSplitRejectsItemsOutsideTable: Split names the bad op instead of
// indexing a shard past the spec.
func TestSplitRejectsItemsOutsideTable(t *testing.T) {
	for _, d := range []*Delta{
		{NumItems: 4, Added: []Claim{c(0, 9, 1)}},
		{NumItems: 4, Retracted: []Claim{c(0, -2, 1)}},
		{NumItems: 4, Changed: []ValueChange{{Old: c(0, 4, 1), New: c(0, 4, 2)}}},
	} {
		if _, err := d.Split(RangeShards(2, 4)); err == nil {
			t.Errorf("split of %+v accepted", d)
		}
	}
}

// FuzzSnapshotApply drives Apply at its trust boundary. From the input
// it builds a small base and a chain of deltas, four bytes an op, that
// runs long enough to cross compaction. An op may name an item outside
// the table, carry a stale payload, move a changed claim's key, repeat
// a key, or sit out of order in a list marked sorted. Each Apply must
// reject exactly the deltas a map-based reference rejects, and otherwise
// equal the reference rebuilt with NewSnapshot: same Digest, empty Diff,
// same per-item claims.
func FuzzSnapshotApply(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		numItems, numSources := 1+int(data[0]%48), 1+int(data[1]%6)
		data = data[2:]
		ref := make(map[claimKey]Claim)
		var claims []Claim
		for it := 0; it < numItems; it++ {
			for s := 0; s < numSources; s++ {
				if (it+2*s)%3 != 0 {
					cl := c(SourceID(s), ItemID(it), float64((it+s)%5))
					ref[keyOf(&cl)] = cl
					claims = append(claims, cl)
				}
			}
		}
		snap := NewSnapshot(0, "d0", numItems, claims)
		// 256 days cross compaction many times over; the cap keeps a
		// grown input from stalling a fuzz worker.
		for day := 1; len(data) > 0 && day <= 256; day++ {
			var d *Delta
			d, data = fuzzDelta(data, ref, numItems, numSources, day)
			baseDigest := snap.Digest()
			next, err := snap.Apply(d)
			wantRef, ok := refApply(ref, d, numItems)
			if snap.Digest() != baseDigest {
				t.Fatalf("day %d: Apply changed its base", day)
			}
			switch {
			case ok && err != nil:
				t.Fatalf("day %d: valid delta %+v refused: %v", day, d, err)
			case !ok && err == nil:
				t.Fatalf("day %d: malformed delta %+v accepted", day, d)
			case !ok:
				continue
			}
			want := NewSnapshot(day, d.ToLabel, numItems, slices.Collect(maps.Values(wantRef)))
			checkSameSnapshot(t, fmt.Sprintf("day %d", day), next, want)
			snap, ref = next, wantRef
		}
	})
}

type claimKey struct {
	item ItemID
	src  SourceID
}

func keyOf(c *Claim) claimKey { return claimKey{c.Item, c.Source} }

// fuzzDelta reads one delta from data, up to an end op or the end of
// the input (a trailing partial op is dropped), and returns the rest. Its ops are drawn against ref so most
// match the base; the flag bits of each op's last byte spoil them.
func fuzzDelta(data []byte, ref map[claimKey]Claim, numItems, numSources, day int) (*Delta, []byte) {
	d := &Delta{FromDay: day - 1, ToDay: day, ToLabel: fmt.Sprintf("d%d", day), NumItems: numItems}
	for len(data) >= 4 {
		op, b1, b2, b3 := data[0], data[1], data[2], data[3]
		data = data[4:]
		item := ItemID(int(b1)%(numItems+2) - 1) // -1 and numItems lie outside
		src := SourceID(int(b2) % (numSources + 1))
		val := float64(b3 % 16)
		cur, held := ref[claimKey{item, src}]
		if !held {
			cur = c(src, item, val)
		}
		old := cur
		if b3&0x80 != 0 {
			old.Val = value.Num(val + 100) // no base claim holds it
		}
		switch op % 8 {
		case 0, 1:
			d.Added = append(d.Added, c(src, item, val))
		case 2:
			d.Retracted = append(d.Retracted, old)
		case 3, 4:
			nw := cur
			nw.Val = value.Num(val + 1)
			if b3&0x40 != 0 {
				nw.Source++
			}
			d.Changed = append(d.Changed, ValueChange{Old: old, New: nw})
		case 5:
			return d, data
		case 6:
			slices.SortStableFunc(d.Added, func(a, b Claim) int { return claimCmp(&a, &b) })
			slices.SortStableFunc(d.Retracted, func(a, b Claim) int { return claimCmp(&a, &b) })
			slices.SortStableFunc(d.Changed, func(a, b ValueChange) int { return claimCmp(&a.Old, &b.Old) })
			d.MarkSorted()
			return d, data
		case 7: // marked as it stands, in or out of order
			d.MarkSorted()
			return d, data
		}
	}
	return d, nil
}

func claimCmp(a, b *Claim) int {
	switch {
	case claimKeyLess(a, b):
		return -1
	case claimKeyLess(b, a):
		return 1
	}
	return 0
}

// refApply is Apply's contract on a map: every op names an item in the
// table; a marked delta's lists are in strict key order; each base claim
// is retracted or changed at most once, from its exact payload, and a
// change keeps the key; an addition collides with no surviving claim.
func refApply(ref map[claimKey]Claim, d *Delta, numItems int) (map[claimKey]Claim, bool) {
	olds := make([]Claim, len(d.Changed))
	for i := range d.Changed {
		olds[i] = d.Changed[i].Old
	}
	for _, list := range [][]Claim{d.Added, d.Retracted, olds} {
		for i := range list {
			if list[i].Item < 0 || int(list[i].Item) >= numItems {
				return nil, false
			}
			if d.sorted && i > 0 && !claimKeyLess(&list[i-1], &list[i]) {
				return nil, false
			}
		}
	}
	out := maps.Clone(ref)
	touched := make(map[claimKey]bool)
	for _, r := range d.Retracted {
		k := keyOf(&r)
		if b, ok := ref[k]; !ok || b != r || touched[k] {
			return nil, false
		}
		touched[k] = true
		delete(out, k)
	}
	for _, ch := range d.Changed {
		k := keyOf(&ch.Old)
		if b, ok := ref[k]; !ok || b != ch.Old || touched[k] || keyOf(&ch.New) != k {
			return nil, false
		}
		touched[k] = true
		out[k] = ch.New
	}
	for _, a := range d.Added {
		k := keyOf(&a)
		if _, ok := out[k]; ok {
			return nil, false
		}
		out[k] = a
	}
	return out, true
}

// checkSameSnapshot asserts got carries exactly want's claims, and that
// every item view of got is capacity-capped, so no caller append can
// write into a neighbour's claims.
func checkSameSnapshot(t *testing.T, ctx string, got, want *Snapshot) {
	t.Helper()
	if got.Digest() != want.Digest() || got.NumClaims() != want.NumClaims() {
		t.Fatalf("%s: digest or claim count differs (%d vs %d claims)", ctx, got.NumClaims(), want.NumClaims())
	}
	if d, err := got.Diff(want); err != nil || !d.Empty() {
		t.Fatalf("%s: diff to the reference %+v, %v", ctx, d, err)
	}
	for it := 0; it < want.NumItems(); it++ {
		g, w := got.ItemClaims(ItemID(it)), want.ItemClaims(ItemID(it))
		if !slices.Equal(g, w) {
			t.Fatalf("%s: item %d claims %v, want %v", ctx, it, g, w)
		}
		if cap(g) != len(g) {
			t.Fatalf("%s: item %d view has spare capacity %d", ctx, it, cap(g)-len(g))
		}
	}
}

// churnWorld is a base of numItems items with numSources claims each,
// and a generator of low-churn deltas against any snapshot of it: each
// delta touches frac of the items, mostly repricing one claim, sometimes
// retracting or adding one.
func churnWorld(numItems, numSources int, frac float64, seed int64) (*Snapshot, func(*Snapshot) *Delta) {
	claims := make([]Claim, 0, numItems*numSources)
	for it := 0; it < numItems; it++ {
		for s := 0; s < numSources; s++ {
			claims = append(claims, c(SourceID(s), ItemID(it), float64(100+it%37)))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	next := func(cur *Snapshot) *Delta {
		items := rng.Perm(numItems)[:max(1, int(frac*float64(numItems)))]
		slices.Sort(items)
		d := &Delta{FromDay: cur.Day, ToDay: cur.Day + 1, NumItems: numItems}
		for _, it := range items {
			view := cur.ItemClaims(ItemID(it))
			r := rng.Float64()
			switch {
			case len(view) > 1 && r < 0.1:
				d.Retracted = append(d.Retracted, view[rng.Intn(len(view))])
			case len(view) < numSources+4 && r < 0.2:
				d.Added = append(d.Added, c(view[len(view)-1].Source+1, ItemID(it), 1))
			default:
				old := view[rng.Intn(len(view))]
				nw := old
				nw.Val = value.Num(old.Val.Num + 1)
				d.Changed = append(d.Changed, ValueChange{Old: old, New: nw})
			}
		}
		d.MarkSorted()
		return d
	}
	return NewSnapshot(0, "d0", numItems, claims), next
}

// liveHeap returns the heap bytes live after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// heldBytes returns the heap bytes only *s keeps alive, and clears *s.
func heldBytes(s **Snapshot) int64 {
	with := liveHeap()
	*s = nil
	return with - liveHeap()
}

// TestApplyChainRetention: a chain of at least 200 deltas at 3.5% item
// churn, keeping only the newest snapshot, holds within (1 + 1/8) of a
// fresh snapshot of the same claims, plus one delta's worth. It is read
// at the newest snapshot whose successor compacts, where the chain holds
// the most (or at day 400 if none does); without compaction it would
// keep every delta's arena alive.
func TestApplyChainRetention(t *testing.T) {
	const numItems, numSources = 20000, 6
	cur, next := churnWorld(numItems, numSources, 0.035, 1)
	maxOps := 0
	for cur.Day < 400 {
		d := next(cur)
		maxOps = max(maxOps, d.Size())
		succ, err := cur.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if succ.Day > 200 && succ.sinceCompact == 0 {
			break
		}
		cur = succ
	}
	claims := make([]Claim, 0, cur.NumClaims())
	for _, cl := range cur.Claims {
		claims = append(claims, cl)
	}
	fresh := NewSnapshot(cur.Day, cur.Label, numItems, claims)
	claims = nil
	freshBytes := heldBytes(&fresh)
	chainBytes := heldBytes(&cur)
	limit := freshBytes + freshBytes/compactShare + int64(maxOps)*int64(unsafe.Sizeof(Claim{}))
	if chainBytes > limit {
		t.Fatalf("chain holds %d bytes, fresh snapshot %d: over the %d bound", chainBytes, freshBytes, limit)
	}
	t.Logf("chain holds %d bytes, fresh snapshot %d (%.3fx)", chainBytes, freshBytes,
		float64(chainBytes)/float64(freshBytes))
}

// arenaOrdered reports whether the non-empty item views of s lie end to
// end in one array, in item order.
func arenaOrdered(s *Snapshot) bool {
	var end unsafe.Pointer
	for _, view := range s.items {
		if len(view) == 0 {
			continue
		}
		start := unsafe.Pointer(unsafe.SliceData(view))
		if end != nil && start != end {
			return false
		}
		end = unsafe.Add(start, uintptr(len(view))*unsafe.Sizeof(Claim{}))
	}
	return true
}

// sharesView reports whether two views are the same claims in memory.
func sharesView(a, b []Claim) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestApplyLayout: a small delta shares every clean item's view with its
// base and lays the dirty items into an arena of their own; compaction
// lays the whole snapshot out in one arena, in item order.
func TestApplyLayout(t *testing.T) {
	const numItems, numSources = 400, 5
	base, next := churnWorld(numItems, numSources, 0.01, 2)
	if !arenaOrdered(base) {
		t.Fatal("NewSnapshot views are not one arena in item order")
	}
	d := next(base)
	small, err := base.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	dirty := make(map[ItemID]bool)
	for _, it := range d.DirtyItems() {
		dirty[it] = true
	}
	for it := 0; it < numItems; it++ {
		a, b := base.ItemClaims(ItemID(it)), small.ItemClaims(ItemID(it))
		if shared := sharesView(a, b); shared == dirty[ItemID(it)] {
			t.Fatalf("item %d: dirty %v, view shared %v", it, dirty[ItemID(it)], shared)
		}
	}
	if small.sinceCompact == 0 {
		t.Fatal("a small delta compacted the snapshot")
	}
	cur := small
	for cur.sinceCompact != 0 {
		if cur, err = cur.Apply(next(cur)); err != nil {
			t.Fatal(err)
		}
		if cur.Day > 100 {
			t.Fatal("the chain never compacted")
		}
	}
	if !arenaOrdered(cur) {
		t.Fatal("compacted views are not one arena in item order")
	}
}

// TestShardCopiesNoClaims: Shard hands each shard its items' views and
// allocates nothing but the shards' item tables.
func TestShardCopiesNoClaims(t *testing.T) {
	// 4096 items make each table whole pages, so the bound is exact.
	const numItems, shards = 4096, 4
	snap, _ := churnWorld(numItems, 6, 0, 3)
	sp := RangeShards(shards, numItems)
	var out []*Snapshot
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := snap.Shard(sp)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	tables := uint64(shards * numItems * int(unsafe.Sizeof([]Claim(nil))))
	if got, limit := after.TotalAlloc-before.TotalAlloc, tables+1024; got > limit {
		t.Fatalf("Shard allocated %d bytes, over its item tables' %d plus 1 KiB", got, tables)
	}
	for it := 0; it < numItems; it++ {
		view := out[sp.ShardOf(ItemID(it))].ItemClaims(ItemID(it))
		if !sharesView(view, snap.ItemClaims(ItemID(it))) {
			t.Fatalf("item %d: shard view is a copy", it)
		}
	}
}
