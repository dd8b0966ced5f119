package model

import (
	"fmt"
	"math"
	"sort"
)

// Delta is the claim-level difference between two snapshots of the same
// dataset: the streaming-ingest unit of the system. Instead of shipping a
// full per-day world, a producer ships the day-0 snapshot once and then one
// Delta per day; consumers reconstruct each day with Apply and feed the
// dirty items to incremental fusion.
//
// The three op lists are disjoint and each is sorted by (item, source), the
// snapshot claim order. A claim that exists in both snapshots but differs in
// any field (value, cause or copy label) appears in Changed; claims present
// only in the base appear in Retracted; claims present only in the target
// appear in Added.
type Delta struct {
	// FromDay/ToDay and the labels identify the two snapshots the delta
	// connects; Apply stamps the target identity onto the snapshot it builds.
	FromDay   int
	ToDay     int
	FromLabel string
	ToLabel   string
	// NumItems is the shared item-table size of both snapshots.
	NumItems int

	Added     []Claim
	Retracted []Claim
	Changed   []ValueChange

	// sorted records that every op list is already in claim-key order —
	// the Diff invariant. Apply skips sorting the op lists when it is set,
	// and DirtyItems its order scans; hand-assembled deltas leave it unset
	// and pay the sort.
	sorted bool
}

// MarkSorted declares that the op lists are already in claim-key order,
// letting Apply skip sorting them and DirtyItems skip its order scans.
// Mark deltas whose order is guaranteed by construction (Diff output, or
// a faithfully transported copy of one). Apply still checks the order as
// it merges, so a marked delta that is out of order is an error, never a
// corrupt snapshot.
func (d *Delta) MarkSorted() { d.sorted = true }

// ValueChange is one claim whose (source, item) key survives between
// snapshots with a different payload.
type ValueChange struct {
	Old Claim
	New Claim
}

// Size returns the number of claim-level operations in the delta.
func (d *Delta) Size() int { return len(d.Added) + len(d.Retracted) + len(d.Changed) }

// Empty reports whether the delta carries no operations.
func (d *Delta) Empty() bool { return d.Size() == 0 }

// DirtyItems returns the sorted, de-duplicated IDs of every item whose
// claim set the delta touches — the work-list incremental fusion re-runs.
// Each op list is ordered by (item, source), so the item IDs stream out of
// a three-way merge with no sort, keeping delta consumption linear even
// when a day churns most of its claims.
func (d *Delta) DirtyItems() []ItemID {
	add, ret, chg := d.Added, d.Retracted, d.Changed
	if !d.sorted &&
		(!sort.SliceIsSorted(add, func(a, b int) bool { return claimKeyLess(&add[a], &add[b]) }) ||
			!sort.SliceIsSorted(ret, func(a, b int) bool { return claimKeyLess(&ret[a], &ret[b]) }) ||
			!sort.SliceIsSorted(chg, func(a, b int) bool { return claimKeyLess(&chg[a].Old, &chg[b].Old) })) {
		return d.dirtyItemsSlow()
	}
	const done = ItemID(1<<31 - 1)
	head := func(cs []Claim) ItemID {
		if len(cs) == 0 {
			return done
		}
		return cs[0].Item
	}
	out := make([]ItemID, 0, 64)
	for {
		next := head(add)
		if it := head(ret); it < next {
			next = it
		}
		if len(chg) > 0 && chg[0].Old.Item < next {
			next = chg[0].Old.Item
		}
		if next == done {
			return out
		}
		out = append(out, next)
		for len(add) > 0 && add[0].Item == next {
			add = add[1:]
		}
		for len(ret) > 0 && ret[0].Item == next {
			ret = ret[1:]
		}
		for len(chg) > 0 && chg[0].Old.Item == next {
			chg = chg[1:]
		}
	}
}

// dirtyItemsSlow is the sort-based fallback for hand-assembled deltas
// whose op lists are not in claim-key order.
func (d *Delta) dirtyItemsSlow() []ItemID {
	items := make([]ItemID, 0, d.Size())
	for i := range d.Added {
		items = append(items, d.Added[i].Item)
	}
	for i := range d.Retracted {
		items = append(items, d.Retracted[i].Item)
	}
	for i := range d.Changed {
		items = append(items, d.Changed[i].New.Item)
	}
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
	out := items[:0]
	for i, it := range items {
		if i == 0 || it != items[i-1] {
			out = append(out, it)
		}
	}
	return out
}

// claimKeyLess orders claims by the snapshot sort key (item, source).
func claimKeyLess(a, b *Claim) bool {
	if a.Item != b.Item {
		return a.Item < b.Item
	}
	return a.Source < b.Source
}

// sameKey reports whether two claims share the (item, source) key.
func sameKey(a, b *Claim) bool { return a.Item == b.Item && a.Source == b.Source }

// Diff computes the delta that transforms s into target. Both snapshots
// must be indexed for the same item table; claims are matched by their
// (item, source) key in one linear merge per item, and an item whose view
// the two snapshots share (Apply carried it over untouched) is skipped
// without reading its claims.
func (s *Snapshot) Diff(target *Snapshot) (*Delta, error) {
	if len(s.items) != len(target.items) {
		return nil, fmt.Errorf("model: diff across item tables (%d vs %d items)",
			len(s.items), len(target.items))
	}
	d := &Delta{
		FromDay:   s.Day,
		ToDay:     target.Day,
		FromLabel: s.Label,
		ToLabel:   target.Label,
		NumItems:  len(s.items),
		sorted:    true, // op lists stream out of the merge in claim-key order
	}
	for it, a := range s.items {
		b := target.items[it]
		if len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) {
			continue
		}
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch x, y := &a[i], &b[j]; {
			case x.Source < y.Source:
				d.Retracted = append(d.Retracted, *x)
				i++
			case y.Source < x.Source:
				d.Added = append(d.Added, *y)
				j++
			default:
				if *x != *y {
					d.Changed = append(d.Changed, ValueChange{Old: *x, New: *y})
				}
				i++
				j++
			}
		}
		d.Retracted = append(d.Retracted, a[i:]...)
		d.Added = append(d.Added, b[j:]...)
	}
	return d, nil
}

// sortedOps returns ops ordered by the claim key, reusing the input slice
// when it is already sorted (the Diff invariant) and cloning otherwise, so
// hand-assembled deltas apply too.
func sortedOps[T any](ops []T, key func(*T) *Claim) []T {
	sorted := sort.SliceIsSorted(ops, func(a, b int) bool {
		return claimKeyLess(key(&ops[a]), key(&ops[b]))
	})
	if sorted {
		return ops
	}
	out := append([]T(nil), ops...)
	sort.Slice(out, func(a, b int) bool { return claimKeyLess(key(&out[a]), key(&out[b])) })
	return out
}

// compactShare is the share of a snapshot's claims that may sit in arenas
// laid since its chain was last laid out in one arena (1/compactShare):
// past it, Apply lays the whole snapshot out afresh. It bounds the claims
// a chain of applied snapshots keeps alive beyond its live ones.
const compactShare = 8

// Apply replays a delta onto s, returning the target snapshot. The merge
// verifies every operation against the base as it goes: retractions and
// changes must match an existing claim exactly, a change must keep its
// claim's key, additions must not collide with a surviving claim, every
// op must name an item inside the table, and each op list must be in
// strict claim-key order (Apply sorts an unmarked delta's lists first).
// A delta that fails any check is an error and s is left as it was.
//
// Only the items the delta touches are merged, into one new exact-size
// arena; every other item shares its view with s. Once the claims laid
// into such arenas reach 1/8 of the snapshot, or the delta's ops alone
// do, Apply instead lays the whole snapshot out in one new arena, so a
// chain of applied snapshots retains at most about 1/8 more claims than
// it holds.
func (s *Snapshot) Apply(d *Delta) (*Snapshot, error) {
	if len(s.items) != d.NumItems {
		return nil, fmt.Errorf("model: delta for %d items applied to snapshot with %d",
			d.NumItems, len(s.items))
	}
	w := opWalk{add: d.Added, ret: d.Retracted, chg: d.Changed, numItems: len(s.items), last: -1}
	if !d.sorted {
		// Hand-assembled delta: restore the claim-key order the merge
		// checks. Diff-produced deltas carry the sorted flag and skip this.
		w.add = sortedOps(w.add, func(c *Claim) *Claim { return c })
		w.ret = sortedOps(w.ret, func(c *Claim) *Claim { return c })
		w.chg = sortedOps(w.chg, func(v *ValueChange) *Claim { return &v.Old })
	}
	numClaims := s.numClaims + len(d.Added) - len(d.Retracted)
	if numClaims < 0 {
		return nil, fmt.Errorf("model: delta retracts %d claims from a snapshot of %d",
			len(d.Retracted), s.numClaims)
	}
	out := &Snapshot{Day: d.ToDay, Label: d.ToLabel, numClaims: numClaims}

	// Decide from the op count first: a delta whose ops alone reach the
	// compaction share compacts without counting its items' claims.
	compact := compactShare*d.Size() >= s.numClaims
	laid := 0
	if !compact {
		count := w
		for {
			it, err := count.next()
			if err != nil {
				return nil, err
			}
			if it < 0 {
				break
			}
			laid += len(s.items[it])
		}
		laid += len(d.Added) - len(d.Retracted)
		compact = compactShare*(s.sinceCompact+laid) >= numClaims
	}
	if compact {
		if err := s.applyCompact(out, &w); err != nil {
			return nil, err
		}
		return out, nil
	}

	out.sinceCompact = s.sinceCompact + laid
	out.items = append([][]Claim(nil), s.items...)
	arena := make([]Claim, 0, max(laid, 0))
	for {
		it, err := w.next()
		if err != nil {
			return nil, err
		}
		if it < 0 {
			break
		}
		start := len(arena)
		if arena, err = w.merge(arena, s.items[it]); err != nil {
			return nil, err
		}
		out.items[it] = arena[start:len(arena):len(arena)]
	}
	return out, nil
}

// applyCompact lays every item of s, after the walk's ops, out in item
// order in one new arena of out's exact size.
func (s *Snapshot) applyCompact(out *Snapshot, w *opWalk) error {
	out.items = make([][]Claim, len(s.items))
	arena := make([]Claim, 0, out.numClaims)
	dirty, err := w.next()
	if err != nil {
		return err
	}
	for it, view := range s.items {
		start := len(arena)
		if it != dirty {
			arena = append(arena, view...)
		} else {
			if arena, err = w.merge(arena, view); err != nil {
				return err
			}
			if dirty, err = w.next(); err != nil {
				return err
			}
		}
		out.items[it] = arena[start:len(arena):len(arena)]
	}
	return nil
}

// opWalk walks a delta's op lists one item at a time, in item order,
// checking that the lists name items inside the table in strict
// claim-key order: one comparison per op.
type opWalk struct {
	add, ret []Claim
	chg      []ValueChange
	numItems int
	last     int // the item taken last, -1 before the first

	// The ops on the item taken last, in source order.
	itemAdd, itemRet []Claim
	itemChg          []ValueChange
}

// next takes the runs of ops on the next item the lists name and returns
// that item, or -1 once every list is exhausted.
func (w *opWalk) next() (int, error) {
	if len(w.add) == 0 && len(w.ret) == 0 && len(w.chg) == 0 {
		return -1, nil
	}
	it := math.MaxInt
	if len(w.add) > 0 {
		it = int(w.add[0].Item)
	}
	if len(w.ret) > 0 {
		it = min(it, int(w.ret[0].Item))
	}
	if len(w.chg) > 0 {
		it = min(it, int(w.chg[0].Old.Item))
	}
	if err := checkItem(it, w.numItems); err != nil {
		return 0, err
	}
	if it <= w.last {
		return 0, fmt.Errorf("model: delta ops out of claim-key order at item %d (after item %d)", it, w.last)
	}
	w.last = it
	var err error
	if w.itemAdd, w.add, err = claimRun(w.add, ItemID(it), "adds"); err != nil {
		return 0, err
	}
	if w.itemRet, w.ret, err = claimRun(w.ret, ItemID(it), "retracts"); err != nil {
		return 0, err
	}
	n := 0
	for ; n < len(w.chg) && w.chg[n].Old.Item == ItemID(it); n++ {
		if n > 0 && w.chg[n].Old.Source <= w.chg[n-1].Old.Source {
			return 0, opOrderError("changes", &w.chg[n].Old)
		}
	}
	w.itemChg, w.chg = w.chg[:n], w.chg[n:]
	return it, nil
}

// claimRun splits cs into its leading run of claims on item it and the
// rest, checking that the run's sources strictly increase.
func claimRun(cs []Claim, it ItemID, verb string) (run, rest []Claim, err error) {
	n := 0
	for ; n < len(cs) && cs[n].Item == it; n++ {
		if n > 0 && cs[n].Source <= cs[n-1].Source {
			return nil, nil, opOrderError(verb, &cs[n])
		}
	}
	return cs[:n], cs[n:], nil
}

func opOrderError(verb string, c *Claim) error {
	return fmt.Errorf("model: delta %s (item %d, source %d) out of claim-key order or twice",
		verb, c.Item, c.Source)
}

// merge appends base, the view of the item taken last, to dst with that
// item's ops applied, checking each op against the base claim it meets.
func (w *opWalk) merge(dst, base []Claim) ([]Claim, error) {
	add, ret, chg := w.itemAdd, w.itemRet, w.itemChg
	for i := range base {
		c := &base[i]
		if len(ret) > 0 && ret[0].Source == c.Source {
			if ret[0] != *c {
				return nil, fmt.Errorf("model: delta retracts (item %d, source %d) with a stale payload",
					c.Item, c.Source)
			}
			ret = ret[1:]
			continue
		}
		for len(add) > 0 && add[0].Source < c.Source {
			dst = append(dst, add[0])
			add = add[1:]
		}
		if len(add) > 0 && add[0].Source == c.Source {
			return nil, fmt.Errorf("model: delta adds claim (item %d, source %d) that already exists",
				c.Item, c.Source)
		}
		if len(chg) > 0 && chg[0].Old.Source == c.Source {
			if chg[0].Old != *c {
				return nil, fmt.Errorf("model: delta changes (item %d, source %d) from a stale payload",
					c.Item, c.Source)
			}
			if !sameKey(&chg[0].New, c) {
				return nil, fmt.Errorf("model: delta changes (item %d, source %d) into (item %d, source %d)",
					c.Item, c.Source, chg[0].New.Item, chg[0].New.Source)
			}
			dst = append(dst, chg[0].New)
			chg = chg[1:]
			continue
		}
		dst = append(dst, *c)
	}
	if len(ret) > 0 {
		return nil, fmt.Errorf("model: delta retracts (item %d, source %d), absent from the base",
			ret[0].Item, ret[0].Source)
	}
	if len(chg) > 0 {
		return nil, fmt.Errorf("model: delta changes (item %d, source %d), absent from the base",
			chg[0].Old.Item, chg[0].Old.Source)
	}
	return append(dst, add...), nil
}
