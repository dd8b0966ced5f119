// Flightfusion: simulate the paper's Flight collection — where copying
// among low-accuracy sources makes wrong values dominant — and show
// copy-aware fusion recovering what VOTE gets wrong.
//
//	go run ./examples/flightfusion [-flights 600] [-seed 1]
package main

import (
	"flag"
	"fmt"

	td "truthdiscovery"
)

func main() {
	flights := flag.Int("flights", 600, "number of flights to simulate")
	seed := flag.Int64("seed", 1, "world seed")
	flag.Parse()

	sim := td.SimulateFlight(td.FlightOptions{
		Seed: *seed, Flights: *flights, Days: 1, GoldFlights: *flights / 5,
	})
	snap := sim.Dataset.Snapshots[0]

	// The world truth doubles as the evaluation standard here (the
	// experiments harness uses the paper's airline-site gold protocol).
	gold := sim.Truths[0]

	fmt.Printf("simulated %d sources (%d fused), %d claims, %d copy groups\n\n",
		len(sim.Dataset.Sources), len(sim.Fused), snap.NumClaims(), len(sim.CopyGroups))

	type row struct {
		name string
		opts td.FuseOptions
	}
	rows := []row{
		{"Vote", td.FuseOptions{Sources: sim.Fused}},
		{"AccuPr", td.FuseOptions{Sources: sim.Fused}},
		{"PopAccu", td.FuseOptions{Sources: sim.Fused}},
		{"AccuCopy", td.FuseOptions{Sources: sim.Fused}},
		{"AccuCopy +known groups", td.FuseOptions{Sources: sim.Fused, KnownCopyGroups: sim.CopyGroups}},
	}
	fmt.Printf("%-24s %10s %8s\n", "method", "precision", "errors")
	for _, r := range rows {
		method := r.name
		if method == "AccuCopy +known groups" {
			method = "AccuCopy"
		}
		answers, err := td.Fuse(sim.Dataset, snap, method, r.opts)
		if err != nil {
			panic(err)
		}
		ev := td.EvaluateAgainst(sim.Dataset, answers, gold)
		fmt.Printf("%-24s %10.3f %8d\n", r.name, ev.Precision, ev.Errors)
	}
	fmt.Println("\nExpected shape (paper Section 4.2): copied stale estimates from the")
	fmt.Println("low-accuracy cliques become dominant values, so VOTE errs; PopAccu and")
	fmt.Println("AccuCopy, which discount popular false values / detected copies, win.")
}
