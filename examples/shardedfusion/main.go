// Sharded fusion: partition the items into shards, fuse every shard as
// its own problem under a memory budget, and merge source trust across
// shards deterministically. The answers are bit-identical to the flat
// engine at any shard count — sharding is purely an execution choice:
// shard-level concurrency when everything fits in memory, a bounded
// arena ceiling (MaxResidentShards) when it does not. The example also
// composes sharding with the delta stream: day-two claims arrive as a
// delta that is routed to the shards' dirty worklists.
package main

import (
	"fmt"
	"log"

	td "truthdiscovery"
)

func main() {
	b := td.NewBuilder("groceries")
	price := b.Attribute("price", td.Number)
	stores := []td.SourceID{b.Source("north"), b.Source("south"), b.Source("east"), b.Source("west")}

	// Day one: 40 SKUs, broad agreement, the "west" store is sloppy.
	skus := make([]td.ObjectID, 40)
	for i := range skus {
		skus[i] = b.Object(fmt.Sprintf("sku-%02d", i))
		for si, s := range stores {
			v := fmt.Sprintf("%d.49", 2+i%9)
			if si == 3 && i%5 == 0 {
				v = fmt.Sprintf("%d.99", 2+i%9) // off by 50 cents
			}
			check(b.Claim(s, skus[i], price, v))
		}
	}
	b.EndDay("day1")

	// Day two: a handful of SKUs reprice.
	for i := range skus {
		v := fmt.Sprintf("%d.49", 2+i%9)
		if i%7 == 0 {
			v = fmt.Sprintf("%d.29", 2+i%9) // repriced
		}
		for si, s := range stores {
			if si == 3 && i%5 == 0 {
				continue // west cleaned up its catalogue
			}
			check(b.Claim(s, skus[i], price, v))
		}
	}
	b.EndDay("day2")

	ds, day0, deltas, err := b.BuildStream()
	if err != nil {
		log.Fatal(err)
	}

	// Fuse day one over 4 item shards, keeping a single shard's arena
	// resident at a time — the memory-budget mode for worlds whose flat
	// arena would not fit.
	opts := td.FuseOptions{Shards: 4, MaxResidentShards: 1}
	answers, state, err := td.FuseStateful(ds, day0, "AccuPr", opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day1: fused %d items over 4 shards (peak resident %d bytes)\n",
		len(answers), state.PeakResidentBytes())
	fmt.Printf("  %s = %s\n", answers[0].ObjectKey, answers[0].Value)

	// Day two arrives as a claim delta: it splits by item shard, every
	// shard re-bucketizes only its own dirty items, and one trust merge
	// finishes the day. The state keeps its layout, and the answers equal
	// a full fuse of the day-two world.
	answers, state, err = td.FuseIncremental(ds, state, deltas[0], "AccuPr", opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day2: %s advance touched %d of %d items\n",
		state.Stats.Mode, state.Stats.DirtyItems, state.Stats.TotalItems)

	// The sharded stream is exact: a flat fuse of the reconstructed
	// day-two snapshot returns the same answers, value for value.
	day2, err := day0.Apply(deltas[0])
	if err != nil {
		log.Fatal(err)
	}
	flat, err := td.Fuse(ds, day2, "AccuPr", td.FuseOptions{})
	if err != nil {
		log.Fatal(err)
	}
	identical := len(flat) == len(answers)
	for i := range answers {
		identical = identical && answers[i] == flat[i]
	}
	fmt.Printf("sharded answers identical to flat fuse of day2: %v\n", identical)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
