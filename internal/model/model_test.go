package model

import (
	"testing"

	"truthdiscovery/internal/value"
)

// tinyDataset builds a two-source, two-object, two-attribute dataset with a
// snapshot, used across the package tests.
func tinyDataset(t *testing.T) (*Dataset, *Snapshot) {
	t.Helper()
	ds := NewDataset("test")
	price := ds.AddAttr(Attribute{Name: "price", Kind: value.Number, Considered: true})
	gate := ds.AddAttr(Attribute{Name: "gate", Kind: value.Text, Considered: true})
	s1 := ds.AddSource(Source{Name: "alpha", Authority: true})
	s2 := ds.AddSource(Source{Name: "beta"})
	o1 := ds.AddObject(Object{Key: "X"})
	o2 := ds.AddObject(Object{Key: "Y"})

	claims := []Claim{
		{Source: s1, Item: ds.ItemFor(o1, price), Val: value.Num(100), CopiedFrom: NoSource},
		{Source: s2, Item: ds.ItemFor(o1, price), Val: value.Num(105), CopiedFrom: NoSource},
		{Source: s1, Item: ds.ItemFor(o2, price), Val: value.Num(50), CopiedFrom: NoSource},
		{Source: s2, Item: ds.ItemFor(o1, gate), Val: value.Str("B22"), CopiedFrom: NoSource},
	}
	snap := NewSnapshot(0, "day0", len(ds.Items), claims)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.01, snap)
	return ds, snap
}

func TestItemForIdempotent(t *testing.T) {
	ds := NewDataset("d")
	a := ds.AddAttr(Attribute{Name: "a", Kind: value.Number})
	o := ds.AddObject(Object{Key: "o"})
	i1 := ds.ItemFor(o, a)
	i2 := ds.ItemFor(o, a)
	if i1 != i2 {
		t.Errorf("ItemFor not idempotent: %v vs %v", i1, i2)
	}
	if got, ok := ds.LookupItem(o, a); !ok || got != i1 {
		t.Errorf("LookupItem = %v/%v", got, ok)
	}
	if _, ok := ds.LookupItem(o, AttrID(99)); ok {
		t.Error("LookupItem of unknown pair should miss")
	}
}

func TestLookups(t *testing.T) {
	ds, _ := tinyDataset(t)
	if s, ok := ds.SourceByName("alpha"); !ok || !s.Authority {
		t.Errorf("SourceByName alpha = %+v, %v", s, ok)
	}
	if _, ok := ds.SourceByName("nope"); ok {
		t.Error("unknown source found")
	}
	if a, ok := ds.AttrByName("price"); !ok || a.Kind != value.Number {
		t.Errorf("AttrByName price = %+v, %v", a, ok)
	}
	if got := len(ds.ConsideredAttrs()); got != 2 {
		t.Errorf("ConsideredAttrs = %d", got)
	}
}

func TestSnapshotIndexing(t *testing.T) {
	ds, snap := tinyDataset(t)
	item, _ := ds.LookupItem(0, 0)
	claims := snap.ItemClaims(item)
	if len(claims) != 2 {
		t.Fatalf("item 0 claims = %d, want 2", len(claims))
	}
	if claims[0].Source > claims[1].Source {
		t.Error("claims not sorted by source")
	}
	if snap.NumItems() != len(ds.Items) {
		t.Errorf("NumItems = %d", snap.NumItems())
	}
}

func TestSnapshotBucketize(t *testing.T) {
	ds, snap := tinyDataset(t)
	items := snap.Bucketize(ds)
	if len(items) != 3 {
		t.Fatalf("bucketized items = %d, want 3 (one item has no claims)", len(items))
	}
	first := items[0]
	if len(first.Buckets) != 2 {
		t.Errorf("price item buckets = %d, want 2 (tolerance ~1)", len(first.Buckets))
	}
	prov := first.Providers(0)
	if len(prov) != 1 {
		t.Errorf("bucket providers = %v", prov)
	}
}

func TestValidate(t *testing.T) {
	ds, _ := tinyDataset(t)
	if err := ds.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}

	// Claim referencing an unknown source.
	bad := NewDataset("bad")
	a := bad.AddAttr(Attribute{Name: "a", Kind: value.Number})
	o := bad.AddObject(Object{Key: "o"})
	item := bad.ItemFor(o, a)
	snap := NewSnapshot(0, "x", len(bad.Items), []Claim{
		{Source: 7, Item: item, Val: value.Num(1)},
	})
	bad.AddSnapshot(snap)
	if err := bad.Validate(); err == nil {
		t.Error("unknown source should fail validation")
	}

	// Kind mismatch.
	bad2 := NewDataset("bad2")
	a2 := bad2.AddAttr(Attribute{Name: "a", Kind: value.Text})
	bad2.AddSource(Source{Name: "s"})
	o2 := bad2.AddObject(Object{Key: "o"})
	item2 := bad2.ItemFor(o2, a2)
	snap2 := NewSnapshot(0, "x", len(bad2.Items), []Claim{
		{Source: 0, Item: item2, Val: value.Num(1)},
	})
	bad2.AddSnapshot(snap2)
	if err := bad2.Validate(); err == nil {
		t.Error("kind mismatch should fail validation")
	}
}

func TestComputeTolerances(t *testing.T) {
	ds, _ := tinyDataset(t)
	// price claims: 100, 105, 50 -> median 100 -> tol 1.0.
	if got := ds.Tolerance(0); got != 1.0 {
		t.Errorf("price tolerance = %v, want 1.0", got)
	}
	// gate is text -> 0.
	if got := ds.Tolerance(1); got != 0 {
		t.Errorf("text tolerance = %v", got)
	}
	// Out-of-range attribute.
	if got := ds.Tolerance(AttrID(42)); got != 0 {
		t.Errorf("unknown attr tolerance = %v", got)
	}
}

func TestTruthTable(t *testing.T) {
	ds, snap := tinyDataset(t)
	tt := NewTruthTable()
	item0, _ := ds.LookupItem(0, 0)
	item2, _ := ds.LookupItem(1, 0)
	tt.Set(item0, value.Num(100))
	tt.Set(item2, value.Num(55)) // alpha said 50: wrong beyond tol

	if _, ok := tt.Get(item0); !ok || tt.Len() != 2 {
		t.Errorf("Get/Len wrong: %v/%d", ok, tt.Len())
	}
	if got := len(tt.Items()); got != 2 {
		t.Errorf("Items = %d", got)
	}

	acc, cov := tt.SourceAccuracy(ds, snap)
	// alpha: claims on item0 (100: right) and item2 (50 vs 55: wrong) -> .5
	if acc[0] != 0.5 {
		t.Errorf("alpha accuracy = %v, want 0.5", acc[0])
	}
	// beta: claims on item0 (105: wrong) -> 0; gate item not in gold.
	if acc[1] != 0 {
		t.Errorf("beta accuracy = %v, want 0", acc[1])
	}
	if cov[0] != 1.0 || cov[1] != 0.5 {
		t.Errorf("coverage = %v/%v", cov[0], cov[1])
	}
}

func TestPerAttrAccuracy(t *testing.T) {
	ds, snap := tinyDataset(t)
	tt := NewTruthTable()
	item0, _ := ds.LookupItem(0, 0)
	gateItem, _ := ds.LookupItem(0, 1)
	tt.Set(item0, value.Num(100))
	tt.Set(gateItem, value.Str("B22"))

	fallback := []float64{0.7, 0.7}
	per := tt.PerAttrAccuracy(ds, snap, fallback)
	if per[0][0] != 1.0 {
		t.Errorf("alpha price accuracy = %v", per[0][0])
	}
	if per[0][1] != 0.7 {
		t.Errorf("alpha gate accuracy should fall back, got %v", per[0][1])
	}
	if per[1][1] != 1.0 {
		t.Errorf("beta gate accuracy = %v", per[1][1])
	}
}

func TestCauseString(t *testing.T) {
	for c, want := range map[Cause]string{
		CauseNone: "none", CauseSemantic: "semantics ambiguity",
		CauseInstance: "instance ambiguity", CauseStale: "out-of-date",
		CauseUnit: "unit error", CauseError: "pure error",
		CauseFormat: "formatting", Cause(99): "cause(99)",
	} {
		if got := c.String(); got != want {
			t.Errorf("Cause(%d) = %q, want %q", c, got, want)
		}
	}
}

// TestSnapshotDigest: the digest identifies claim content — identical
// claims digest equal regardless of day/label, and any change to a
// value, source or item set changes it.
func TestSnapshotDigest(t *testing.T) {
	claims := func(v float64) []Claim {
		return []Claim{
			{Source: 0, Item: 0, Val: value.Num(v), CopiedFrom: NoSource},
			{Source: 1, Item: 0, Val: value.Num(v + 1), CopiedFrom: NoSource},
			{Source: 0, Item: 1, Val: value.Str("B22"), CopiedFrom: NoSource},
		}
	}
	a := NewSnapshot(0, "day0", 2, claims(10))
	b := NewSnapshot(7, "another-label", 2, claims(10))
	if a.Digest() != b.Digest() {
		t.Fatal("identical claims digest differently across day/label")
	}
	c := NewSnapshot(0, "day0", 2, claims(10.0000001))
	if a.Digest() == c.Digest() {
		t.Fatal("a changed value did not change the digest")
	}
	d := NewSnapshot(0, "day0", 2, claims(10)[:2])
	if a.Digest() == d.Digest() {
		t.Fatal("a dropped claim did not change the digest")
	}
}

// TestToleranceDigest: the digest changes with the tolerance regime —
// the same day-0 claims under a longer collection period must not look
// resumable to the serving layer.
func TestToleranceDigest(t *testing.T) {
	build := func(days int) *Dataset {
		d := NewDataset("tol")
		attr := d.AddAttr(Attribute{Name: "price", Kind: value.Number, Considered: true})
		d.AddSource(Source{Name: "s"})
		obj := d.AddObject(Object{Key: "o"})
		item := d.ItemFor(obj, attr)
		snaps := make([]*Snapshot, days)
		for day := range snaps {
			snaps[day] = NewSnapshot(day, "", len(d.Items), []Claim{
				{Source: 0, Item: item, Val: value.Num(10 * float64(day+1)), CopiedFrom: NoSource},
			})
			d.AddSnapshot(snaps[day])
		}
		d.ComputeTolerances(value.DefaultAlpha, snaps...)
		return d
	}
	a, b := build(2), build(2)
	if a.ToleranceDigest() != b.ToleranceDigest() {
		t.Fatal("identical regimes digest differently")
	}
	c := build(4) // same day-0 claim, longer period => different median => different tolerance
	if a.Tolerance(0) == c.Tolerance(0) {
		t.Skip("periods produced equal tolerances; scenario needs distinct medians")
	}
	if a.ToleranceDigest() == c.ToleranceDigest() {
		t.Fatal("a changed tolerance regime did not change the digest")
	}
}
