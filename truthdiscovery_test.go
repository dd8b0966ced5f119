package truthdiscovery

import (
	"math"
	"strings"
	"testing"
)

func TestBuilderAndFuse(t *testing.T) {
	b := NewBuilder("books")
	price := b.Attribute("price", Number)
	s1 := b.Source("storeA")
	s2 := b.Source("storeB")
	s3 := b.Source("storeC")
	book := b.Object("golang-book")
	other := b.Object("db-book")

	mustClaim := func(src SourceID, obj ObjectID, raw string) {
		t.Helper()
		if err := b.Claim(src, obj, price, raw); err != nil {
			t.Fatalf("claim: %v", err)
		}
	}
	mustClaim(s1, book, "42.50")
	mustClaim(s2, book, "42.50")
	mustClaim(s3, book, "60.00")
	mustClaim(s1, other, "19.99")
	mustClaim(s2, other, "19.99")

	ds, snap, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if len(ds.Items) != 2 || snap.NumClaims() != 5 {
		t.Fatalf("built %d items / %d claims", len(ds.Items), snap.NumClaims())
	}

	answers, err := Fuse(ds, snap, "Vote", FuseOptions{})
	if err != nil {
		t.Fatalf("fuse: %v", err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %d", len(answers))
	}
	for _, a := range answers {
		switch a.ObjectKey {
		case "golang-book":
			if a.Value.Num != 42.50 || a.Support != 2 || a.Providers != 3 {
				t.Errorf("golang-book answer = %+v", a)
			}
		case "db-book":
			if a.Value.Num != 19.99 {
				t.Errorf("db-book answer = %+v", a)
			}
		}
		if a.Attribute != "price" {
			t.Errorf("attribute = %s", a.Attribute)
		}
	}

	// Every method runs through the public API.
	for _, m := range Methods() {
		if _, err := Fuse(ds, snap, m.Name(), FuseOptions{}); err != nil {
			t.Errorf("Fuse(%s): %v", m.Name(), err)
		}
	}
	if _, err := Fuse(ds, snap, "NotAMethod", FuseOptions{}); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestBuilderParseError(t *testing.T) {
	b := NewBuilder("x")
	a := b.Attribute("n", Number)
	s := b.Source("s")
	o := b.Object("o")
	if err := b.Claim(s, o, a, "not-a-number"); err == nil {
		t.Fatal("bad raw value should error")
	}
	if _, _, err := b.Build(); err == nil {
		t.Fatal("Build should surface the claim error")
	}
}

// TestBuilderRejectsNonFinite: raw claims that parse to NaN or an
// infinity fail, and so does an already-normalised number or time that is
// not finite; Build surfaces the first such error.
func TestBuilderRejectsNonFinite(t *testing.T) {
	b := NewBuilder("x")
	n := b.Attribute("n", Number)
	s := b.Source("s")
	o := b.Object("o")
	for _, raw := range []string{"NaN", "Inf", "-Infinity"} {
		if err := b.Claim(s, o, n, raw); err == nil {
			t.Errorf("Claim(%q) should fail", raw)
		}
	}

	for _, v := range []Value{
		{Kind: Number, Num: math.NaN()},
		{Kind: Number, Num: math.Inf(1)},
		{Kind: Time, Num: math.Inf(-1)},
	} {
		b := NewBuilder("x")
		n := b.Attribute("n", v.Kind)
		s := b.Source("s")
		o := b.Object("o")
		b.ClaimValue(s, o, n, Value{Kind: v.Kind, Num: 1})
		b.ClaimValue(s, o, n, v)
		if _, _, err := b.Build(); err == nil {
			t.Errorf("Build accepted ClaimValue %v", v)
		}
	}
	if _, _, err := LoadClaimsCSV(strings.NewReader("s,o,a,number,NaN\n")); err == nil {
		t.Error("LoadClaimsCSV accepted NaN")
	}
}

func TestBuilderTimeAndText(t *testing.T) {
	b := NewBuilder("flights")
	dep := b.Attribute("departure", Time)
	gate := b.Attribute("gate", Text)
	s := b.Source("site")
	o := b.Object("AA1")
	if err := b.Claim(s, o, dep, "6:15pm"); err != nil {
		t.Fatal(err)
	}
	if err := b.Claim(s, o, gate, " b22"); err != nil {
		t.Fatal(err)
	}
	ds, snap, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	answers, err := Fuse(ds, snap, "AccuPr", FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		switch a.Attribute {
		case "departure":
			if a.Value.Num != 1095 {
				t.Errorf("departure = %v", a.Value)
			}
		case "gate":
			if a.Value.Text != "B22" {
				t.Errorf("gate = %v", a.Value)
			}
		}
	}
}

func TestEvaluateAgainst(t *testing.T) {
	b := NewBuilder("eval")
	price := b.Attribute("price", Number)
	s1, s2, s3 := b.Source("a"), b.Source("b"), b.Source("c")
	o := b.Object("X")
	b.ClaimValue(s1, o, price, mustNum(t, "100"))
	b.ClaimValue(s2, o, price, mustNum(t, "100"))
	b.ClaimValue(s3, o, price, mustNum(t, "200"))
	ds, snap, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	answers, _ := Fuse(ds, snap, "Vote", FuseOptions{})

	gld := NewGold()
	gld.Set(answers[0].Item, mustNum(t, "100"))
	ev := EvaluateAgainst(ds, answers, gld)
	if ev.Precision != 1 || ev.Recall != 1 || ev.Errors != 0 {
		t.Errorf("eval = %+v", ev)
	}
	wrong := NewGold()
	wrong.Set(answers[0].Item, mustNum(t, "200"))
	ev2 := EvaluateAgainst(ds, answers, wrong)
	if ev2.Precision != 0 || ev2.Errors != 1 {
		t.Errorf("eval2 = %+v", ev2)
	}
}

func mustNum(t *testing.T, raw string) Value {
	t.Helper()
	v, err := ParseValue(Number, raw)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSimulators(t *testing.T) {
	stock := SimulateStock(StockOptions{Seed: 1, Stocks: 60, Days: 2, GoldSymbols: 30})
	if len(stock.Dataset.Snapshots) != 2 {
		t.Fatalf("stock snapshots = %d", len(stock.Dataset.Snapshots))
	}
	flight := SimulateFlight(FlightOptions{Seed: 1, Flights: 100, Days: 2, GoldFlights: 25})
	if len(flight.Dataset.Snapshots) != 2 {
		t.Fatalf("flight snapshots = %d", len(flight.Dataset.Snapshots))
	}
	// Fusing a simulated snapshot through the public API.
	answers, err := Fuse(stock.Dataset, stock.Dataset.Snapshots[0], "AccuFormatAttr",
		FuseOptions{Sources: stock.Fused})
	if err != nil || len(answers) == 0 {
		t.Fatalf("fuse simulated stock: %v (%d answers)", err, len(answers))
	}
}
