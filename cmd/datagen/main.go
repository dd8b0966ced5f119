// Command datagen exports a simulated Deep Web collection as CSV, one claim
// per row, for use with cmd/fuse or external tools.
//
//	datagen -domain stock -day 6 > stock.csv
//	datagen -domain flight -day 7 -flights 400 > flight.csv
//
// Output columns: source, object, attribute, kind, value. With -truth the
// world ground truth is written instead (source column = "_truth_").
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"

	"truthdiscovery/internal/datagen"
	"truthdiscovery/internal/model"
)

func main() {
	var (
		domain  = flag.String("domain", "stock", "stock or flight")
		day     = flag.Int("day", 0, "collection day to export")
		seed    = flag.Int64("seed", 1, "world seed")
		stocks  = flag.Int("stocks", 1000, "stock symbols (stock domain)")
		flights = flag.Int("flights", 1200, "flights (flight domain)")
		truth   = flag.Bool("truth", false, "export the world truth instead of claims")
	)
	flag.Parse()

	var gen datagen.Generator
	switch *domain {
	case "stock":
		cfg := datagen.DefaultStockConfig(*seed)
		cfg.Stocks = *stocks
		cfg.Days = *day + 1
		if cfg.GoldSymbols > cfg.Stocks/2 {
			cfg.GoldSymbols = cfg.Stocks / 2
		}
		gen = datagen.NewStock(cfg)
	case "flight":
		cfg := datagen.DefaultFlightConfig(*seed)
		cfg.Flights = *flights
		cfg.Days = *day + 1
		if cfg.GoldFlights > cfg.Flights/2 {
			cfg.GoldFlights = cfg.Flights / 2
		}
		gen = datagen.NewFlight(cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown domain %q\n", *domain)
		os.Exit(2)
	}

	ds := gen.Dataset()
	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	writeRow := func(src string, item model.ItemID, val string) {
		it := ds.Items[item]
		if err := w.Write([]string{
			src, ds.Objects[it.Object].Key, ds.Attrs[it.Attr].Name,
			ds.Attrs[it.Attr].Kind.String(), val,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := w.Write([]string{"source", "object", "attribute", "kind", "value"}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *truth {
		tt := gen.Truth(*day)
		for item := model.ItemID(0); int(item) < len(ds.Items); item++ {
			if v, ok := tt.Get(item); ok {
				writeRow("_truth_", item, v.String())
			}
		}
		return
	}
	snap := gen.Snapshot(*day)
	for _, c := range snap.Claims {
		writeRow(ds.Sources[c.Source].Name, c.Item, c.Val.String())
	}
}
