package model

import (
	"reflect"
	"testing"

	"truthdiscovery/internal/value"
)

// The Apply benchmarks time Snapshot.Apply on three delta shapes. A
// small delta merges only its dirty items into an arena of their own and
// shares every other item's view with the base; a large one lays the
// whole snapshot out afresh.
//
//   - FromDiff and Unflagged replay a ~3%-churn Diff delta on a
//     120k-claim base. FromDiff carries the sorted flag; Unflagged is the
//     same delta unmarked, so it pays the order scans before the merge.
//   - StockChurn is the paper's Stock day: ~70% of claims changed on
//     ~94% of the items, which takes the compacting path.
//   - OneItem is a live-ingest flush: one item's claims changed on a
//     78k-claim, Flight-sized snapshot.

// benchApplyWorld builds a ~120k-claim base snapshot and a ~3%-churn
// target, returning the base and the Diff delta between them.
func benchApplyWorld(b testing.TB) (*Snapshot, *Delta) {
	b.Helper()
	const numItems, numSources = 20000, 12
	mk := func(day int) *Snapshot {
		var claims []Claim
		for it := 0; it < numItems; it++ {
			for s := 0; s < numSources; s++ {
				if (it+s)%2 != 0 { // ~50% coverage
					continue
				}
				v := float64(100 + it%37)
				if day > 0 && (it*numSources+s)%33 == 0 { // ~3% churn
					v += float64(day)
				}
				claims = append(claims, Claim{
					Source: SourceID(s), Item: ItemID(it),
					Val: value.Num(v), CopiedFrom: NoSource,
				})
			}
		}
		return NewSnapshot(day, "bench", numItems, claims)
	}
	base, target := mk(0), mk(1)
	delta, err := base.Diff(target)
	if err != nil {
		b.Fatal(err)
	}
	if delta.Empty() {
		b.Fatal("bench world produced an empty delta")
	}
	return base, delta
}

func benchApply(b *testing.B, sorted bool) {
	base, delta := benchApplyWorld(b)
	if !sorted {
		unflagged := *delta
		unflagged.sorted = false
		delta = &unflagged
	}
	benchApplyDelta(b, base, delta)
}

func benchApplyDelta(b *testing.B, base *Snapshot, delta *Delta) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := base.Apply(delta)
		if err != nil {
			b.Fatal(err)
		}
		if snap.NumItems() != base.NumItems() {
			b.Fatal("bad snapshot")
		}
	}
}

// benchDiffWorld builds a base of numItems items with numSources claims
// each and the Diff delta to a target where change picks the changed
// (item, source) claims.
func benchDiffWorld(b *testing.B, numItems, numSources int, change func(it, s int) bool) (*Snapshot, *Delta) {
	b.Helper()
	mk := func(day int) *Snapshot {
		claims := make([]Claim, 0, numItems*numSources)
		for it := 0; it < numItems; it++ {
			for s := 0; s < numSources; s++ {
				v := float64(100 + it%37)
				if day > 0 && change(it, s) {
					v++
				}
				claims = append(claims, Claim{
					Source: SourceID(s), Item: ItemID(it),
					Val: value.Num(v), CopiedFrom: NoSource,
				})
			}
		}
		return NewSnapshot(day, "bench", numItems, claims)
	}
	base := mk(0)
	delta, err := base.Diff(mk(1))
	if err != nil {
		b.Fatal(err)
	}
	return base, delta
}

func BenchmarkSnapshotApplyFromDiff(b *testing.B)  { benchApply(b, true) }
func BenchmarkSnapshotApplyUnflagged(b *testing.B) { benchApply(b, false) }

// BenchmarkSnapshotApplyStockChurn: 16 claims on each of 20k items; 94%
// of the items are dirty, and 12 of the 16 claims change on each.
func BenchmarkSnapshotApplyStockChurn(b *testing.B) {
	base, delta := benchDiffWorld(b, 20000, 16, func(it, s int) bool { return it%50 > 2 && s%4 != 0 })
	benchApplyDelta(b, base, delta)
}

// BenchmarkSnapshotApplyOneItem: 11 claims on each of 7,200 items; the
// delta changes 8 claims of one item.
func BenchmarkSnapshotApplyOneItem(b *testing.B) {
	base, delta := benchDiffWorld(b, 7200, 11, func(it, s int) bool { return it == 3600 && s < 8 })
	benchApplyDelta(b, base, delta)
}

// TestMarkSortedMatchesVerifiedApply pins the MarkSorted contract: for a
// delta whose op lists are in claim-key order, the marked fast path must
// produce the same snapshot as the unmarked, order-verifying path.
func TestMarkSortedMatchesVerifiedApply(t *testing.T) {
	base, delta := benchApplyWorld(t)

	verified := *delta // sorted-by-construction but unflagged
	verified.sorted = false
	want, err := base.Apply(&verified)
	if err != nil {
		t.Fatal(err)
	}

	marked := verified // same lists, re-marked as a transported Diff would be
	marked.MarkSorted()
	got, err := base.Apply(&marked)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(claimList(got), claimList(want)) {
		t.Fatal("marked and verified Apply built different claims")
	}
}

// BenchmarkDeltaDirtyItems measures the work-list extraction on the same
// delta (also a sorted-fast-path consumer).
func BenchmarkDeltaDirtyItems(b *testing.B) {
	_, delta := benchApplyWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(delta.DirtyItems()) == 0 {
			b.Fatal("no dirty items")
		}
	}
}
