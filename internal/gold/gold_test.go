package gold

import (
	"testing"

	"truthdiscovery/internal/datagen"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

func voteFixture(t *testing.T) (*model.Dataset, *model.Snapshot, []model.SourceID) {
	t.Helper()
	ds := model.NewDataset("Stock")
	price := ds.AddAttr(model.Attribute{Name: "price", Kind: value.Number, Considered: true})
	var auths []model.SourceID
	for _, n := range []string{"a1", "a2", "a3"} {
		auths = append(auths, ds.AddSource(model.Source{Name: n, Authority: true}))
	}
	other := ds.AddSource(model.Source{Name: "other"})
	o1 := ds.AddObject(model.Object{Key: "X"})
	o2 := ds.AddObject(model.Object{Key: "Y"})
	claims := []model.Claim{
		// X: authorities 2-1 for 100.
		{Source: auths[0], Item: ds.ItemFor(o1, price), Val: value.Num(100)},
		{Source: auths[1], Item: ds.ItemFor(o1, price), Val: value.Num(100)},
		{Source: auths[2], Item: ds.ItemFor(o1, price), Val: value.Num(200)},
		{Source: other, Item: ds.ItemFor(o1, price), Val: value.Num(200)},
		// Y: only two authorities provide -> below min providers.
		{Source: auths[0], Item: ds.ItemFor(o2, price), Val: value.Num(50)},
		{Source: auths[1], Item: ds.ItemFor(o2, price), Val: value.Num(50)},
	}
	snap := model.NewSnapshot(0, "d", len(ds.Items), claims)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.01, snap)
	return ds, snap, auths
}

func TestFromAuthorityVote(t *testing.T) {
	ds, snap, auths := voteFixture(t)
	gld := FromAuthorityVote(ds, snap, auths, []model.ObjectID{0, 1}, 3)
	item0, _ := ds.LookupItem(0, 0)
	v, ok := gld.Get(item0)
	if !ok || v.Num != 100 {
		t.Errorf("gold for X = %v/%v, want 100 (authority majority, not overall majority)", v, ok)
	}
	item1, _ := ds.LookupItem(1, 0)
	if _, ok := gld.Get(item1); ok {
		t.Error("item with two authority providers must not enter the gold standard")
	}
	// Lower threshold admits it.
	gld2 := FromAuthorityVote(ds, snap, auths, []model.ObjectID{0, 1}, 2)
	if _, ok := gld2.Get(item1); !ok {
		t.Error("threshold 2 should admit item Y")
	}
	// Restricting the object list excludes items.
	gld3 := FromAuthorityVote(ds, snap, auths, []model.ObjectID{1}, 2)
	if _, ok := gld3.Get(item0); ok {
		t.Error("object X not requested but present in gold")
	}
}

func TestFromOwnerClaims(t *testing.T) {
	ds := model.NewDataset("Flight")
	dep := ds.AddAttr(model.Attribute{Name: "dep", Kind: value.Time, Considered: true})
	aa := ds.AddSource(model.Source{Name: "AA-site", Authority: true})
	ua := ds.AddSource(model.Source{Name: "UA-site", Authority: true})
	o1 := ds.AddObject(model.Object{Key: "AA1", Group: "AA"})
	o2 := ds.AddObject(model.Object{Key: "UA2", Group: "UA"})
	o3 := ds.AddObject(model.Object{Key: "DL3", Group: "DL"}) // no owner
	claims := []model.Claim{
		{Source: aa, Item: ds.ItemFor(o1, dep), Val: value.Minutes(600)},
		{Source: ua, Item: ds.ItemFor(o1, dep), Val: value.Minutes(700)}, // not the owner
		{Source: ua, Item: ds.ItemFor(o2, dep), Val: value.Minutes(800)},
		{Source: aa, Item: ds.ItemFor(o3, dep), Val: value.Minutes(900)},
	}
	snap := model.NewSnapshot(0, "d", len(ds.Items), claims)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(0.01, snap)

	owners := map[string]model.SourceID{"AA": aa, "UA": ua}
	gld := FromOwnerClaims(ds, snap, owners, []model.ObjectID{o1, o2, o3})
	i1, _ := ds.LookupItem(o1, dep)
	if v, ok := gld.Get(i1); !ok || v.Num != 600 {
		t.Errorf("AA1 gold = %v/%v, want the owner's 600", v, ok)
	}
	i2, _ := ds.LookupItem(o2, dep)
	if v, ok := gld.Get(i2); !ok || v.Num != 800 {
		t.Errorf("UA2 gold = %v/%v", v, ok)
	}
	i3, _ := ds.LookupItem(o3, dep)
	if _, ok := gld.Get(i3); ok {
		t.Error("object without an owner must not enter the gold standard")
	}
}

func TestForGeneratedBothDomains(t *testing.T) {
	scfg := datagen.DefaultStockConfig(1)
	scfg.Stocks = 60
	scfg.GoldSymbols = 30
	scfg.Days = 2
	sg := datagen.NewStock(scfg)
	snap := sg.Snapshot(0)
	sg.Dataset().ComputeTolerances(value.DefaultAlpha, snap)
	gld := ForGenerated(sg, snap)
	if gld.Len() == 0 {
		t.Error("stock gold standard is empty")
	}
	if gld.Len() > scfg.GoldSymbols*16 {
		t.Errorf("stock gold too large: %d", gld.Len())
	}

	fcfg := datagen.DefaultFlightConfig(1)
	fcfg.Flights = 80
	fcfg.GoldFlights = 20
	fcfg.Days = 2
	fg := datagen.NewFlight(fcfg)
	fsnap := fg.Snapshot(0)
	fg.Dataset().ComputeTolerances(value.DefaultAlpha, fsnap)
	fgld := ForGenerated(fg, fsnap)
	if fgld.Len() == 0 {
		t.Error("flight gold standard is empty")
	}
	if fgld.Len() > fcfg.GoldFlights*6 {
		t.Errorf("flight gold too large: %d", fgld.Len())
	}
}
