package fusion

import (
	"math"
	"testing"
	"testing/quick"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// randomProblem builds a small random (but structurally valid) fusion
// problem from fuzz input.
func randomProblem(srcCount, itemCount uint8, cells []uint16) *Problem {
	nSrc := 2 + int(srcCount%8)
	nItems := 1 + int(itemCount%12)
	ds := model.NewDataset("fuzz")
	attr := ds.AddAttr(model.Attribute{Name: "a", Kind: value.Number, Considered: true})
	for s := 0; s < nSrc; s++ {
		ds.AddSource(model.Source{Name: string(rune('a' + s))})
	}
	var claims []model.Claim
	k := 0
	cell := func() uint16 {
		if len(cells) == 0 {
			return 7
		}
		v := cells[k%len(cells)]
		k++
		return v
	}
	for o := 0; o < nItems; o++ {
		obj := ds.AddObject(model.Object{Key: string(rune('A' + o))})
		item := ds.ItemFor(obj, attr)
		for s := 0; s < nSrc; s++ {
			c := cell()
			if c%4 == 0 {
				continue // source does not provide this item
			}
			// Values cluster around a few magnitudes so buckets form.
			v := float64(100 + 10*(c%5))
			claims = append(claims, model.Claim{
				Source: model.SourceID(s), Item: item,
				Val: value.Num(v), CopiedFrom: model.NoSource,
			})
		}
	}
	if len(claims) == 0 {
		claims = append(claims, model.Claim{
			Source: 0, Item: 0, Val: value.Num(1), CopiedFrom: model.NoSource,
		})
	}
	snap := model.NewSnapshot(0, "f", len(ds.Items), claims)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.01, snap)
	return Build(ds, snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
}

// Property: on arbitrary inputs every method terminates, picks a valid
// bucket for every item, and returns finite trust values.
func TestMethodsSurviveRandomProblems(t *testing.T) {
	f := func(srcCount, itemCount uint8, cells []uint16) bool {
		p := randomProblem(srcCount, itemCount, cells)
		for _, m := range Methods() {
			res := m.Run(p, Options{MaxRounds: 30})
			if len(res.Chosen) != len(p.Items) {
				t.Logf("%s: wrong result size", m.Name())
				return false
			}
			for i, c := range res.Chosen {
				if c < 0 || int(c) >= len(p.Items[i].Buckets) {
					t.Logf("%s: invalid bucket %d for item %d", m.Name(), c, i)
					return false
				}
			}
			for _, tr := range res.Trust {
				if math.IsNaN(tr) || math.IsInf(tr, 0) {
					t.Logf("%s: non-finite trust %v", m.Name(), tr)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: adding a vote for a value never makes VOTE switch away from it.
func TestVoteMonotonicity(t *testing.T) {
	f := func(itemCount uint8, cells []uint16) bool {
		p := randomProblem(5, itemCount, cells)
		res := methodNamed("Vote").Run(p, Options{})
		for i := range p.Items {
			chosen := p.Items[i].Buckets[res.Chosen[i]]
			for b := range p.Items[i].Buckets {
				if len(p.Items[i].Buckets[b].Sources) > len(chosen.Sources) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Single-value items must be answered with that value by every method.
func TestSingleValueItems(t *testing.T) {
	ds := model.NewDataset("single")
	attr := ds.AddAttr(model.Attribute{Name: "a", Kind: value.Number, Considered: true})
	ds.AddSource(model.Source{Name: "s"})
	obj := ds.AddObject(model.Object{Key: "O"})
	item := ds.ItemFor(obj, attr)
	snap := model.NewSnapshot(0, "s", 1, []model.Claim{
		{Source: 0, Item: item, Val: value.Num(42), CopiedFrom: model.NoSource},
	})
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.01, snap)
	p := Build(ds, snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	for _, m := range Methods() {
		res := m.Run(p, Options{})
		if res.Chosen[0] != 0 {
			t.Errorf("%s failed the single-claim item", m.Name())
		}
	}
}

// Empty problems are legal inputs.
func TestEmptyProblem(t *testing.T) {
	ds := model.NewDataset("empty")
	ds.AddAttr(model.Attribute{Name: "a", Kind: value.Number, Considered: true})
	ds.AddSource(model.Source{Name: "s"})
	snap := model.NewSnapshot(0, "s", 0, nil)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.01, snap)
	p := Build(ds, snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	for _, m := range Methods() {
		res := m.Run(p, Options{})
		if len(res.Chosen) != 0 {
			t.Errorf("%s produced answers for an empty problem", m.Name())
		}
	}
}

// Conflicting-only items (no agreement at all) still get an answer.
func TestAllConflictingItem(t *testing.T) {
	ds := model.NewDataset("conflict")
	attr := ds.AddAttr(model.Attribute{Name: "a", Kind: value.Number, Considered: true})
	for i := 0; i < 5; i++ {
		ds.AddSource(model.Source{Name: string(rune('a' + i))})
	}
	obj := ds.AddObject(model.Object{Key: "O"})
	item := ds.ItemFor(obj, attr)
	var claims []model.Claim
	for i := 0; i < 5; i++ {
		claims = append(claims, model.Claim{
			Source: model.SourceID(i), Item: item,
			Val: value.Num(float64(100 * (i + 1))), CopiedFrom: model.NoSource,
		})
	}
	snap := model.NewSnapshot(0, "s", 1, claims)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.01, snap)
	p := Build(ds, snap, nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
	if len(p.Items[0].Buckets) != 5 {
		t.Fatalf("buckets = %d, want 5", len(p.Items[0].Buckets))
	}
	for _, m := range Methods() {
		res := m.Run(p, Options{})
		if res.Chosen[0] < 0 || res.Chosen[0] >= 5 {
			t.Errorf("%s invalid choice on all-conflicting item", m.Name())
		}
	}
}

// Options defaults are applied.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxRounds != 100 || o.Epsilon != 1e-6 || o.NFalse != 50 || o.SimWeight != 0.5 {
		t.Errorf("defaults = %+v", o)
	}
	o2 := Options{MaxRounds: 3, Epsilon: 0.1, NFalse: 5, SimWeight: 0.9}.withDefaults()
	if o2.MaxRounds != 3 || o2.Epsilon != 0.1 || o2.NFalse != 5 || o2.SimWeight != 0.9 {
		t.Errorf("explicit options overridden: %+v", o2)
	}
}
