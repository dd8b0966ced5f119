package model

import (
	"math/rand"
	"reflect"
	"testing"

	"truthdiscovery/internal/value"
)

// deltaWorld allocates a small item table shared by the delta tests.
func deltaWorld() (numItems int) { return 12 }

func snapOf(t *testing.T, day int, label string, numItems int, claims []Claim) *Snapshot {
	t.Helper()
	cp := append([]Claim(nil), claims...)
	return NewSnapshot(day, label, numItems, cp)
}

// claimList collects a snapshot's claims in (item, source) order.
func claimList(s *Snapshot) []Claim {
	out := make([]Claim, 0, s.NumClaims())
	for _, cl := range s.Claims {
		out = append(out, cl)
	}
	return out
}

func c(src SourceID, item ItemID, num float64) Claim {
	return Claim{Source: src, Item: item, Val: value.Num(num), CopiedFrom: NoSource}
}

// TestDiffApplyRoundTrip checks that diff-then-apply reproduces the target
// snapshot exactly, covering additions, retractions and value changes, and
// that the claims index (per-item access) matches too.
func TestDiffApplyRoundTrip(t *testing.T) {
	n := deltaWorld()
	base := snapOf(t, 0, "day0", n, []Claim{
		c(0, 0, 10), c(1, 0, 10), c(2, 0, 20),
		c(0, 3, 7), c(1, 3, 7.5),
		c(2, 5, 100),
		c(0, 11, 1),
	})
	target := snapOf(t, 1, "day1", n, []Claim{
		c(0, 0, 10), c(1, 0, 12), c(2, 0, 20), // s1 changed its value on item 0
		c(1, 3, 7.5), // s0 retracted item 3
		c(2, 5, 100),
		c(0, 11, 1), c(3, 11, 2), // s3 appeared on item 11
		c(0, 6, 50), // brand-new item
	})

	d, err := base.Diff(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 2 || len(d.Retracted) != 1 || len(d.Changed) != 1 {
		t.Fatalf("delta ops = %d added, %d retracted, %d changed",
			len(d.Added), len(d.Retracted), len(d.Changed))
	}
	if d.Changed[0].Old.Val.Num != 10 || d.Changed[0].New.Val.Num != 12 {
		t.Fatalf("changed op = %+v", d.Changed[0])
	}
	if got := d.DirtyItems(); !reflect.DeepEqual(got, []ItemID{0, 3, 6, 11}) {
		t.Fatalf("dirty items = %v", got)
	}

	applied, err := base.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if applied.Day != 1 || applied.Label != "day1" {
		t.Fatalf("applied identity = %d %q", applied.Day, applied.Label)
	}
	if !reflect.DeepEqual(claimList(applied), claimList(target)) {
		t.Fatalf("claims differ:\n%v\nvs\n%v", claimList(applied), claimList(target))
	}
	for item := 0; item < n; item++ {
		a := applied.ItemClaims(ItemID(item))
		b := target.ItemClaims(ItemID(item))
		if !reflect.DeepEqual(a, b) && !(len(a) == 0 && len(b) == 0) {
			t.Fatalf("item %d claims differ: %v vs %v", item, a, b)
		}
	}
}

// TestDiffEmptyAndSelf checks the trivial deltas.
func TestDiffEmptyAndSelf(t *testing.T) {
	n := deltaWorld()
	snap := snapOf(t, 0, "d", n, []Claim{c(0, 1, 5), c(1, 2, 6)})
	d, err := snap.Diff(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() || d.Size() != 0 {
		t.Fatalf("self diff not empty: %+v", d)
	}
	applied, err := snap.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(claimList(applied), claimList(snap)) {
		t.Fatal("self apply changed claims")
	}
}

// TestDiffItemTableMismatch checks Diff/Apply refuse cross-dataset use.
func TestDiffItemTableMismatch(t *testing.T) {
	a := snapOf(t, 0, "a", 4, []Claim{c(0, 1, 5)})
	b := snapOf(t, 1, "b", 5, []Claim{c(0, 1, 5)})
	if _, err := a.Diff(b); err == nil {
		t.Fatal("diff across item tables succeeded")
	}
	d, _ := b.Diff(b)
	if _, err := a.Apply(d); err == nil {
		t.Fatal("apply across item tables succeeded")
	}
}

// TestApplyVerifiesBase checks that stale or colliding deltas are rejected
// rather than silently merged.
func TestApplyVerifiesBase(t *testing.T) {
	n := deltaWorld()
	base := snapOf(t, 0, "d0", n, []Claim{c(0, 1, 5), c(1, 2, 6)})

	// Retracting a claim the base does not hold.
	bad := &Delta{NumItems: n, Retracted: []Claim{c(2, 1, 5)}}
	if _, err := base.Apply(bad); err == nil {
		t.Fatal("retraction of absent claim succeeded")
	}
	// Retracting with a stale payload.
	bad = &Delta{NumItems: n, Retracted: []Claim{c(0, 1, 99)}}
	if _, err := base.Apply(bad); err == nil {
		t.Fatal("stale retraction succeeded")
	}
	// Changing from a stale payload.
	bad = &Delta{NumItems: n, Changed: []ValueChange{{Old: c(0, 1, 99), New: c(0, 1, 7)}}}
	if _, err := base.Apply(bad); err == nil {
		t.Fatal("stale change succeeded")
	}
	// Adding a claim that already exists.
	bad = &Delta{NumItems: n, Added: []Claim{c(0, 1, 7)}}
	if _, err := base.Apply(bad); err == nil {
		t.Fatal("colliding addition succeeded")
	}
	// Adding the same (item, source) key twice in one delta.
	bad = &Delta{NumItems: n, Added: []Claim{c(2, 3, 7), c(2, 3, 8)}}
	if _, err := base.Apply(bad); err == nil {
		t.Fatal("duplicate addition succeeded")
	}
	// ... also when the duplicates land after the last base claim.
	bad = &Delta{NumItems: n, Added: []Claim{c(0, 9, 7), c(0, 9, 8)}}
	if _, err := base.Apply(bad); err == nil {
		t.Fatal("trailing duplicate addition succeeded")
	}
}

// TestApplyUnsortedOps checks that a hand-assembled delta with unsorted op
// lists still applies (Apply normalises on entry).
func TestApplyUnsortedOps(t *testing.T) {
	n := deltaWorld()
	base := snapOf(t, 0, "d0", n, []Claim{c(0, 1, 5), c(1, 2, 6), c(0, 4, 9)})
	d := &Delta{
		ToDay: 1, ToLabel: "d1", NumItems: n,
		Added:     []Claim{c(2, 8, 3), c(2, 0, 1)},
		Retracted: []Claim{c(0, 4, 9)},
		Changed:   []ValueChange{{Old: c(0, 1, 5), New: c(0, 1, 5.5)}},
	}
	applied, err := base.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	want := snapOf(t, 1, "d1", n, []Claim{c(2, 0, 1), c(0, 1, 5.5), c(1, 2, 6), c(2, 8, 3)})
	if !reflect.DeepEqual(claimList(applied), claimList(want)) {
		t.Fatalf("claims differ: %v vs %v", claimList(applied), claimList(want))
	}
}

// TestDiffApplyRandomised fuzzes the round trip: random base snapshots,
// random edits, diff, apply, exact equality.
func TestDiffApplyRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const numItems, numSources = 40, 12
	for trial := 0; trial < 50; trial++ {
		// Random base: each (item, source) pair claims with probability 1/3.
		var baseClaims []Claim
		for item := 0; item < numItems; item++ {
			for src := 0; src < numSources; src++ {
				if rng.Intn(3) == 0 {
					baseClaims = append(baseClaims,
						c(SourceID(src), ItemID(item), float64(rng.Intn(50))))
				}
			}
		}
		base := NewSnapshot(0, "base", numItems, baseClaims)

		// Random target: mutate, drop, and add claims.
		var targetClaims []Claim
		seen := make(map[[2]int32]bool)
		for _, cl := range base.Claims {
			seen[[2]int32{int32(cl.Item), int32(cl.Source)}] = true
			switch rng.Intn(10) {
			case 0: // retract
			case 1, 2: // change value
				cl.Val = value.Num(cl.Val.Num + 1 + float64(rng.Intn(5)))
				targetClaims = append(targetClaims, cl)
			default:
				targetClaims = append(targetClaims, cl)
			}
		}
		for k := 0; k < 20; k++ {
			item, src := int32(rng.Intn(numItems)), int32(rng.Intn(numSources))
			if seen[[2]int32{item, src}] {
				continue
			}
			seen[[2]int32{item, src}] = true
			targetClaims = append(targetClaims, c(SourceID(src), ItemID(item), float64(rng.Intn(50))))
		}
		target := NewSnapshot(1, "target", numItems, targetClaims)

		d, err := base.Diff(target)
		if err != nil {
			t.Fatal(err)
		}
		applied, err := base.Apply(d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(claimList(applied), claimList(target)) {
			t.Fatalf("trial %d: round trip diverged", trial)
		}
		// The reverse delta must round-trip too (retractions exercised hard).
		rev, err := target.Diff(base)
		if err != nil {
			t.Fatal(err)
		}
		back, err := target.Apply(rev)
		if err != nil {
			t.Fatalf("trial %d reverse: %v", trial, err)
		}
		if !reflect.DeepEqual(claimList(back), claimList(base)) {
			t.Fatalf("trial %d: reverse round trip diverged", trial)
		}
	}
}
