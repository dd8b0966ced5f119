package truthdiscovery

import (
	"fmt"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// Streaming ingest and incremental fusion: instead of re-fusing every
// snapshot from scratch, ship the day-0 snapshot once and a Delta per day,
// and advance a FusedState across the stream. With the default options the
// answers are bit-identical to calling Fuse on each day's full snapshot —
// the engine reuses the previous problem for unchanged items (and, for
// item-local methods like Vote, the previous answers) and re-runs only
// what the method's contract requires.

// Delta is the claim-level difference between two snapshots: claims added,
// retracted and changed. Produce one with Snapshot.Diff, replay it with
// Snapshot.Apply, or assemble it by hand for true streaming ingest.
type Delta = model.Delta

// ValueChange is one claim whose (source, item) key survives a delta with
// a different payload.
type ValueChange = model.ValueChange

// IncrementalStats reports which path an incremental fuse took and how
// many items it rebuilt.
type IncrementalStats = fusion.IncrementalStats

// AdvanceMode names the incremental paths (see the Mode* constants).
type AdvanceMode = fusion.AdvanceMode

// The incremental fuse paths.
const (
	// ModeLocal recomputed only the dirty items (item-local methods).
	ModeLocal = fusion.ModeLocal
	// ModeWarm ran the dirty-only warm iteration (TrustTolerance > 0).
	ModeWarm = fusion.ModeWarm
	// ModeFull re-ran the full iteration on the incrementally maintained
	// problem (still cheaper than Fuse: unchanged items keep their
	// buckets and similarity/format structures).
	ModeFull = fusion.ModeFull
)

// FusedState is the reusable output of FuseStateful / FuseIncremental: the
// fused problem over its item shards (one shard is the flat layout), the
// source trusts and per-item posteriors. States are immutable — advancing
// one returns a fresh state, so earlier days can be re-advanced (e.g. to
// branch a what-if delta).
type FusedState struct {
	st *fusion.State
	// Stats describes the fuse that produced this state.
	Stats IncrementalStats
}

// Method returns the fusion method name the state was built with.
func (s *FusedState) Method() string { return s.st.Method().Name() }

// Result exposes the underlying fusion result (trust vector, rounds...).
func (s *FusedState) Result() *FusionResult { return s.st.Result }

// PeakResidentBytes reports the largest total of simultaneously resident
// shard-arena bytes the state's engine has observed — the ceiling
// MaxResidentShards bounds.
func (s *FusedState) PeakResidentBytes() int64 { return s.st.Sharded.PeakResidentBytes() }

// FuseStateful fuses a snapshot like Fuse and additionally returns the
// reusable state that FuseIncremental advances over deltas. The layout is
// fixed here, once: FuseOptions.Shards range shards when Shards > 1;
// otherwise, when the planner sets ArenaBudgetBytes and the world's
// estimated flat arena exceeds it, enough range shards that one shard's
// arena fits the budget (at most one per item), kept resident one at a
// time; otherwise one shard. Answers are bit-identical under every layout.
// Sampled-trust runs (FuseOptions.Gold) have no estimation loop to reuse
// and are not supported here — use Fuse for those.
func FuseStateful(ds *Dataset, snap *Snapshot, method string, opts FuseOptions) ([]Answer, *FusedState, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	m, ok := fusion.ByName(method)
	if !ok {
		return nil, nil, fmt.Errorf("truthdiscovery: unknown fusion method %q", method)
	}
	if opts.Gold != nil {
		return nil, nil, fmt.Errorf("truthdiscovery: FuseStateful does not support sampled trust (Gold); use Fuse")
	}
	spec, maxResident := fusion.ResolveLayout(snap, opts.Shards, opts.MaxResidentShards, opts.Planner)
	st, err := fusion.NewState(ds, snap, opts.Sources, spec, m, fusion.Options{
		KnownGroups: opts.KnownCopyGroups,
		Parallelism: opts.Parallelism,
	}, maxResident)
	if err != nil {
		return nil, nil, err
	}
	n := st.Sharded.NumItems()
	state := &FusedState{st: st, Stats: IncrementalStats{Mode: ModeFull, DirtyItems: n, TotalItems: n}}
	return st.Answers(ds), state, nil
}

// FuseIncremental advances a previous fused state over a delta and returns
// the new answers plus the new state. method must match the state's; the
// explicit parameter keeps call sites self-describing. The delta splits by
// item shard, every shard applies its slice and maintains its problem from
// its own dirty worklist, and the method re-runs with the single
// cross-shard trust merge.
//
// The state's layout is fixed: a zero FuseOptions.Shards or
// MaxResidentShards keeps it, and any other value must match it. With a
// zero TrustTolerance the answers are bit-identical to Fuse on the
// delta's target snapshot. A positive tolerance additionally enables the
// dirty-only warm path for the ACCU-family methods: the vote/posterior
// phase re-runs only for items whose claim sets changed, warm-started from
// the previous trust, with an automatic fallback to full re-fusion as soon
// as any source's trust drifts past the tolerance.
func FuseIncremental(ds *Dataset, prev *FusedState, delta *Delta, method string, opts FuseOptions) ([]Answer, *FusedState, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	if prev == nil || prev.st == nil {
		return nil, nil, fmt.Errorf("truthdiscovery: FuseIncremental needs a state from FuseStateful")
	}
	if got := prev.Method(); got != method {
		return nil, nil, fmt.Errorf("truthdiscovery: state was fused with %q, not %q", got, method)
	}
	if opts.Gold != nil {
		return nil, nil, fmt.Errorf("truthdiscovery: FuseIncremental does not support sampled trust (Gold); use Fuse")
	}
	// The roster and the layout were frozen into the state at FuseStateful
	// time; a different one here would be silently ignored, so reject it.
	sp := &prev.st.Sharded
	if opts.Sources != nil && !sameSources(opts.Sources, sp.SourceIDs) {
		return nil, nil, fmt.Errorf("truthdiscovery: FuseIncremental cannot change the source roster; start a new state with FuseStateful")
	}
	if opts.Shards != 0 && opts.Shards != sp.NumShards() {
		return nil, nil, fmt.Errorf("truthdiscovery: FuseIncremental cannot change the layout: the state has %d shards, not Shards = %d (0 keeps the state's layout; start a new state with FuseStateful)",
			sp.NumShards(), opts.Shards)
	}
	if opts.MaxResidentShards != 0 && opts.MaxResidentShards != sp.MaxResident {
		return nil, nil, fmt.Errorf("truthdiscovery: FuseIncremental cannot change the layout: the state keeps %d shards resident, not MaxResidentShards = %d (0 keeps the state's bound; start a new state with FuseStateful)",
			sp.MaxResident, opts.MaxResidentShards)
	}
	st, stats, err := prev.st.Advance(ds, delta, fusion.Options{
		KnownGroups: opts.KnownCopyGroups,
		Parallelism: opts.Parallelism,
	}, fusion.IncrementalOptions{TrustTolerance: opts.TrustTolerance, Planner: opts.Planner})
	if err != nil {
		return nil, nil, err
	}
	state := &FusedState{st: st, Stats: stats}
	return st.Answers(ds), state, nil
}

// sameSources reports whether two rosters are element-wise equal.
func sameSources(a, b []SourceID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EndDay seals every claim recorded since the previous EndDay call into
// one daily snapshot with the given label ("" derives dayN) and starts the
// next day. Returns the day index. Use BuildStream to finalise.
func (b *Builder) EndDay(label string) int {
	if label == "" {
		label = fmt.Sprintf("day%d", len(b.days))
	}
	b.days = append(b.days, dayClaims{label: label, claims: b.claims})
	b.claims = nil
	return len(b.days) - 1
}

// BuildStream finalises a multi-day dataset as a delta stream: the day-0
// snapshot plus one Delta per subsequent day (claims still pending after
// the last EndDay form the final day). Tolerances are derived over the
// whole period, so every day is bucketed under one regime — the invariant
// incremental fusion relies on. All day snapshots are registered on the
// dataset in order.
func (b *Builder) BuildStream() (*Dataset, *Snapshot, []*Delta, error) {
	if b.err != nil {
		return nil, nil, nil, b.err
	}
	days := b.days
	if len(b.claims) > 0 || len(days) == 0 {
		days = append(days, dayClaims{label: fmt.Sprintf("day%d", len(days)), claims: b.claims})
		b.days = days
		b.claims = nil
	}
	// Snapshots are built only now, when the item table is final, so every
	// day is indexed for the same items and Diff applies across days.
	snaps := make([]*Snapshot, len(days))
	for d := range days {
		snaps[d] = model.NewSnapshot(d, days[d].label, len(b.ds.Items), days[d].claims)
		b.ds.AddSnapshot(snaps[d])
	}
	b.ds.ComputeTolerances(value.DefaultAlpha, snaps...)
	if err := b.ds.Validate(); err != nil {
		return nil, nil, nil, err
	}
	deltas := make([]*Delta, 0, len(snaps)-1)
	for d := 1; d < len(snaps); d++ {
		dl, err := snaps[d-1].Diff(snaps[d])
		if err != nil {
			return nil, nil, nil, err
		}
		deltas = append(deltas, dl)
	}
	return b.ds, snaps[0], deltas, nil
}
