package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	td "truthdiscovery"
	"truthdiscovery/internal/datagen"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
	"truthdiscovery/internal/value"
)

// scale sizes the worlds and streams. "full" is the paper-default world
// the benchmark measures; "smoke" is a tiny version for the harness test.
type scale struct {
	stocks, goldStocks int
	flights, goldFlts  int
	lcObjects          int
	// setups is the number of set-ups setup_s takes the median of.
	setups int
}

var scales = map[string]scale{
	"full":  {stocks: 1000, goldStocks: 200, flights: 1200, goldFlts: 100, lcObjects: 2500, setups: 9},
	"smoke": {stocks: 60, goldStocks: 30, flights: 100, goldFlts: 20, lcObjects: 100, setups: 2},
}

// world is one workload's generated input, held in memory before set-up
// starts.
type world struct {
	ds     *model.Dataset
	day0   *model.Snapshot
	method string
	store  bool
	// objects are the object keys point reads draw from: objects that keep
	// at least one claim in every state the workload serves.
	objects []string
	// deltas is the Stock day cycle (day i to day i+1, and the last day
	// back to day 0).
	deltas []*model.Delta
	// churn generates the low-churn delta stream.
	churn *churnGen
	// writes are the live-ingest claim batches, as request bodies.
	writes [][]byte
}

// daily reports whether the workload advances the engine day by day.
func (w *world) daily() bool { return w.deltas != nil || w.churn != nil }

// stockDays is the length of the Stock day cycle.
const stockDays = 6

// simSeed seeds the Stock and Flight simulators. The simulated collection
// is fixed, like the paper's one month of each domain, and the benchmark's
// seed draws the traffic over it: which objects are read, in which order
// live claims arrive. A world drawn from the benchmark's seed would make
// the run-to-run spread mostly a property of the world: Stock's AccuPr
// converges in anywhere from 4 to 13 rounds depending on the simulator
// seed, which moves an advance by a third.
const simSeed = 1

// stockWorld generates the Stock collection's first stockDays days and the
// deltas that cycle through them.
func stockWorld(sc scale, cycle bool) (*world, error) {
	cfg := datagen.DefaultStockConfig(simSeed)
	cfg.Stocks, cfg.GoldSymbols = sc.stocks, sc.goldStocks
	days := 1
	if cycle {
		days = stockDays
	}
	cfg.Days = days
	gen := datagen.NewStock(cfg)
	ds := gen.Dataset()
	snaps := make([]*model.Snapshot, days)
	for d := range snaps {
		snaps[d] = gen.Snapshot(d)
	}
	ds.AddSnapshot(snaps[0])
	// One tolerance regime across the cycle, as truthserved derives it for
	// a multi-day stream.
	ds.ComputeTolerances(value.DefaultAlpha, snaps...)
	w := &world{ds: ds, day0: snaps[0], method: "AccuPr", store: true,
		objects: claimedObjects(ds, snaps...)}
	if cycle {
		for d := range snaps {
			dl, err := snaps[d].Diff(snaps[(d+1)%days])
			if err != nil {
				return nil, err
			}
			w.deltas = append(w.deltas, dl)
		}
	}
	return w, nil
}

// claimedObjects returns the keys of objects that have a claim in every
// given snapshot.
func claimedObjects(ds *model.Dataset, snaps ...*model.Snapshot) []string {
	seen := make([]int, len(ds.Objects))
	for i, s := range snaps {
		for _, c := range s.Claims {
			if o := ds.Items[c.Item].Object; seen[o] == i {
				seen[o] = i + 1
			}
		}
	}
	var keys []string
	for o, n := range seen {
		if n == len(snaps) {
			keys = append(keys, ds.Objects[o].Key)
		}
	}
	return keys
}

// churnGen makes the low-churn stream: each delta touches a fixed share of
// the items, mostly repricing one claim, sometimes retracting or adding one.
type churnGen struct {
	rng        *rand.Rand
	numSources int
	frac       float64
}

// lowChurnFrac is the share of items each low-churn delta dirties.
const lowChurnFrac = 0.035

// lowChurnWorld builds a synthetic numeric world with the public Builder:
// objects × 4 attributes × 30 sources, each source claiming 40% of the
// cells, values clustered around a per-item base with a few deviations.
func lowChurnWorld(seed int64, sc scale) (*world, error) {
	const numAttrs, numSources = 4, 30
	rng := rand.New(rand.NewSource(seed))
	bld := td.NewBuilder("lowchurn")
	attrs := make([]td.AttrID, numAttrs)
	for a := range attrs {
		attrs[a] = bld.Attribute(fmt.Sprintf("a%d", a), td.Number)
	}
	sources := make([]td.SourceID, numSources)
	for s := range sources {
		sources[s] = bld.Source(fmt.Sprintf("s%d", s))
	}
	for o := 0; o < sc.lcObjects; o++ {
		obj := bld.Object(fmt.Sprintf("o%d", o))
		for a, attr := range attrs {
			for _, src := range sources {
				if rng.Float64() < 0.4 {
					bld.ClaimValue(src, obj, attr, churnValue(rng, o*numAttrs+a))
				}
			}
		}
	}
	ds, snap, err := bld.Build()
	if err != nil {
		return nil, err
	}
	// A delta retracts a claim only from an item that keeps another, so
	// every object claimed on day 0 stays claimed.
	return &world{ds: ds, day0: snap, method: "AccuFormatAttr", objects: claimedObjects(ds, snap),
		churn: &churnGen{rng: rng, numSources: numSources, frac: lowChurnFrac}}, nil
}

// churnValue draws a claim value for an item: the item's base value most of
// the time, a coarse rendering of it or a deviating value otherwise.
func churnValue(rng *rand.Rand, item int) value.Value {
	base := 100 + 13*float64(item%11)
	switch rng.Intn(12) {
	case 0, 1:
		return value.Num(base * (1 + 0.04*float64(1+rng.Intn(4))))
	case 2:
		return value.NumGran(base, 10)
	default:
		return value.Num(base)
	}
}

// next builds the delta that moves cur one day forward. Every chosen item
// gets exactly one operation, emitted in item order, so the delta meets
// the Diff ordering invariant by construction.
func (g *churnGen) next(cur *model.Snapshot) *model.Delta {
	n := cur.NumItems()
	items := g.rng.Perm(n)[:max(1, int(g.frac*float64(n)))]
	sort.Ints(items)
	dl := &model.Delta{
		FromDay: cur.Day, ToDay: cur.Day + 1,
		FromLabel: cur.Label, ToLabel: fmt.Sprintf("day%d", cur.Day+1),
		NumItems: n,
	}
	for _, it := range items {
		item := model.ItemID(it)
		claims := cur.ItemClaims(item)
		r := g.rng.Float64()
		switch {
		case len(claims) > 1 && r < 0.1:
			dl.Retracted = append(dl.Retracted, claims[g.rng.Intn(len(claims))])
		case len(claims) < g.numSources && (len(claims) == 0 || r < 0.2):
			src := g.freeSource(claims)
			dl.Added = append(dl.Added, model.Claim{Source: src, Item: item,
				Val: churnValue(g.rng, it), CopiedFrom: model.NoSource})
		default:
			old := claims[g.rng.Intn(len(claims))]
			next := old
			next.Val = churnValue(g.rng, it)
			if next.Val == old.Val {
				next.Val = value.Num(old.Val.Num * 1.08)
			}
			dl.Changed = append(dl.Changed, model.ValueChange{Old: old, New: next})
		}
	}
	dl.MarkSorted()
	return dl
}

// freeSource picks a random source with no claim among claims (which are
// sorted by source).
func (g *churnGen) freeSource(claims []model.Claim) model.SourceID {
	taken := make(map[model.SourceID]bool, len(claims))
	for _, c := range claims {
		taken[c.Source] = true
	}
	for {
		if s := model.SourceID(g.rng.Intn(g.numSources)); !taken[s] {
			return s
		}
	}
}

// writeBatch is the number of claim operations per live-ingest request.
const writeBatch = 8

// flightWorld generates Flight day 0 and turns every claim that differs on
// day 1 into a live-ingest operation: an upsert carrying the day-1 value
// rendered as text, or a retraction. The operations are shuffled by the
// benchmark's seed and cut into batches.
func flightWorld(seed int64, sc scale) (*world, error) {
	cfg := datagen.DefaultFlightConfig(simSeed)
	cfg.Flights, cfg.GoldFlights, cfg.Days = sc.flights, sc.goldFlts, 2
	gen := datagen.NewFlight(cfg)
	ds := gen.Dataset()
	day0, day1 := gen.Snapshot(0), gen.Snapshot(1)
	ds.AddSnapshot(day0)
	ds.ComputeTolerances(value.DefaultAlpha, day0)
	dl, err := day0.Diff(day1)
	if err != nil {
		return nil, err
	}
	op := func(c model.Claim, retract bool) serve.ClaimOp {
		o := serve.ClaimOp{
			Source:    ds.Sources[c.Source].Name,
			Object:    ds.Objects[ds.Items[c.Item].Object].Key,
			Attribute: ds.Attrs[ds.Items[c.Item].Attr].Name,
			Retract:   retract,
		}
		if !retract {
			o.Value = c.Val.String()
		}
		return o
	}
	var ops []serve.ClaimOp
	for _, c := range dl.Added {
		ops = append(ops, op(c, false))
	}
	for _, ch := range dl.Changed {
		if ch.Old.Val != ch.New.Val {
			ops = append(ops, op(ch.New, false))
		}
	}
	for _, c := range dl.Retracted {
		ops = append(ops, op(c, true))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	w := &world{ds: ds, day0: day0, method: "AccuPr", store: true,
		objects: stableObjects(ds, dl, day0)}
	for lo := 0; lo+writeBatch <= len(ops); lo += writeBatch {
		body, err := json.Marshal(map[string]any{"claims": ops[lo : lo+writeBatch]})
		if err != nil {
			return nil, err
		}
		w.writes = append(w.writes, body)
	}
	if len(w.writes) == 0 {
		return nil, fmt.Errorf("flight day 1 differs from day 0 in fewer than %d claims", writeBatch)
	}
	return w, nil
}

// stableObjects returns the objects with at least one day-0 claim the
// delta never retracts: they keep answers whatever order the live writes
// land in.
func stableObjects(ds *model.Dataset, dl *model.Delta, day0 *model.Snapshot) []string {
	type key struct {
		item model.ItemID
		src  model.SourceID
	}
	gone := make(map[key]bool, len(dl.Retracted))
	for _, c := range dl.Retracted {
		gone[key{c.Item, c.Source}] = true
	}
	keep := make([]bool, len(ds.Objects))
	for _, c := range day0.Claims {
		if !gone[key{c.Item, c.Source}] {
			keep[ds.Items[c.Item].Object] = true
		}
	}
	var keys []string
	for o, k := range keep {
		if k {
			keys = append(keys, ds.Objects[o].Key)
		}
	}
	return keys
}
