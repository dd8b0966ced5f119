package truthdiscovery

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// Validate checks a FuseOptions for the silent-footgun combinations the
// fusion entry points used to ignore: negative knob values and a
// MaxResidentShards without a shard set to bound. Every public fusion
// function validates its options and returns these errors instead of
// guessing; commands surface them as usage errors (exit 2).
func (o FuseOptions) Validate() error {
	if o.Parallelism < 0 {
		return fmt.Errorf("truthdiscovery: Parallelism must be >= 0 (0 = GOMAXPROCS, 1 = serial), got %d", o.Parallelism)
	}
	if o.Shards < 0 {
		return fmt.Errorf("truthdiscovery: Shards must be >= 0 (0/1 = one shard), got %d", o.Shards)
	}
	if o.MaxResidentShards < 0 {
		return fmt.Errorf("truthdiscovery: MaxResidentShards must be >= 0 (0 = all resident), got %d", o.MaxResidentShards)
	}
	if o.MaxResidentShards > 0 && o.Shards <= 1 {
		return fmt.Errorf("truthdiscovery: MaxResidentShards = %d needs Shards > 1 to bound anything", o.MaxResidentShards)
	}
	if o.TrustTolerance < 0 {
		return fmt.Errorf("truthdiscovery: TrustTolerance must be >= 0, got %g", o.TrustTolerance)
	}
	if o.Planner != nil {
		return o.Planner.Validate()
	}
	return nil
}

// Fingerprint returns a stable hex digest of the method name and every
// option that can change the fused answers: the source roster, the
// sampled-trust gold table (by content — item, exact value bits), known
// copy groups and the incremental trust tolerance. Execution knobs —
// Parallelism, Shards, MaxResidentShards, and the planner's arena
// budget — are excluded on purpose: they are bit-identical execution
// choices. The planner's path-affecting knobs (mode, warm ceiling,
// forced path) join the digest only under a positive TrustTolerance,
// where warm-vs-full is an approximate choice; at zero tolerance every
// path is bit-identical and the planner cannot change an answer. The serving layer stores the
// fingerprint with each persisted run so a server restart can tell
// whether a run on disk answers for the configuration it was started
// with (pair it with Snapshot.Digest to also cover the input data).
func (o FuseOptions) Fingerprint(method string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "method=%s;tol=%g;gold=", method, o.TrustTolerance)
	if o.Gold != nil {
		items := o.Gold.Items()
		sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
		for _, it := range items {
			v, _ := o.Gold.Get(it)
			// Text is length-prefixed so values containing the delimiter
			// characters cannot collide with a different table.
			fmt.Fprintf(h, "%d:%d:%x:%d:%s:%x,", it, v.Kind,
				math.Float64bits(v.Num), len(v.Text), v.Text, math.Float64bits(v.Gran))
		}
	}
	fmt.Fprint(h, ";sources=")
	for _, s := range o.Sources {
		fmt.Fprintf(h, "%d,", s)
	}
	fmt.Fprint(h, ";groups=")
	for _, g := range o.KnownCopyGroups {
		for _, s := range g {
			fmt.Fprintf(h, "%d,", s)
		}
		fmt.Fprint(h, "|")
	}
	if o.TrustTolerance > 0 {
		// A nil planner and an empty mode plan as PlannerAuto.
		var pl Planner
		if o.Planner != nil {
			pl = *o.Planner
		}
		if pl.Mode == "" {
			pl.Mode = PlannerAuto
		}
		fmt.Fprintf(h, ";planner=%s:%g:%s", pl.Mode, pl.WarmChurnCeiling, pl.ForcePath)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
