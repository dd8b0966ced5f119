package truthdiscovery

import (
	"bytes"
	"strings"
	"testing"
)

const sampleCSV = `source,object,attribute,kind,value
siteA,AA1,departure,time,6:15pm
siteB,AA1,departure,time,18:15
siteC,AA1,departure,time,19:40
siteA,AA1,gate,text,B22
siteB,AA1,volume,number,"6,700,000"
`

func TestLoadClaimsCSV(t *testing.T) {
	ds, snap, err := LoadClaimsCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Sources) != 3 || len(ds.Items) != 3 || snap.NumClaims() != 5 {
		t.Fatalf("loaded %d sources / %d items / %d claims",
			len(ds.Sources), len(ds.Items), snap.NumClaims())
	}
	answers, err := Fuse(ds, snap, "Vote", FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		if a.Attribute == "departure" {
			// 6:15pm and 18:15 are the same minute and outvote 19:40.
			if a.Value.String() != "18:15" {
				t.Errorf("departure fused to %s", a.Value.String())
			}
			if a.Support != 2 {
				t.Errorf("departure support = %d", a.Support)
			}
		}
	}
}

func TestLoadClaimsCSVErrors(t *testing.T) {
	cases := []string{
		"source,object\n",                      // wrong column count
		"s,o,a,alien,5\n",                      // unknown kind
		"s,o,a,number,not-a-number\n",          // bad value
		"s,o,a,time,99:99\ns,o,a,time,10:00\n", // bad time
	}
	for _, in := range cases {
		if _, _, err := LoadClaimsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("LoadClaimsCSV(%q) should fail", in)
		}
	}
	// Empty input is a valid empty dataset.
	if _, _, err := LoadClaimsCSV(strings.NewReader("")); err != nil {
		t.Errorf("empty CSV should load: %v", err)
	}
}

func TestClaimsCSVRoundTrip(t *testing.T) {
	ds, snap, err := LoadClaimsCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteClaimsCSV(&buf, ds, snap); err != nil {
		t.Fatal(err)
	}
	ds2, snap2, err := LoadClaimsCSV(&buf)
	if err != nil {
		t.Fatalf("reloading written CSV: %v", err)
	}
	if snap2.NumClaims() != snap.NumClaims() {
		t.Fatalf("round trip lost claims: %d vs %d", snap2.NumClaims(), snap.NumClaims())
	}
	if len(ds2.Sources) != len(ds.Sources) || len(ds2.Items) != len(ds.Items) {
		t.Error("round trip changed the schema")
	}
}

func TestWriteSimulatedCSV(t *testing.T) {
	sim := SimulateFlight(FlightOptions{Seed: 1, Flights: 40, Days: 1, GoldFlights: 10})
	var buf bytes.Buffer
	if err := WriteClaimsCSV(&buf, sim.Dataset, sim.Dataset.Snapshots[0]); err != nil {
		t.Fatal(err)
	}
	ds, snap, err := LoadClaimsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumClaims() != sim.Dataset.Snapshots[0].NumClaims() {
		t.Errorf("claims %d vs %d", snap.NumClaims(), sim.Dataset.Snapshots[0].NumClaims())
	}
	if _, err := Fuse(ds, snap, "PopAccu", FuseOptions{}); err != nil {
		t.Fatal(err)
	}
}
