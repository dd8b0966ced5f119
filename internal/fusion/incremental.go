package fusion

import (
	"fmt"
	"time"

	"truthdiscovery/internal/model"
)

// This file is the streaming half of the fusion engine. A State captures
// one finished fusion run over a range-sharded problem — one shard is the
// flat layout — and Advance moves it across a model.Delta: the delta is
// routed to the item shards (Delta.Split; deltas partition cleanly by
// item), ShardedProblem.Advance has each touched shard apply its slice
// and maintain its problem incrementally (only dirty items are
// re-bucketized and get fresh similarity/format structures; untouched
// shards carry over whole), and the method re-runs on the round
// protocol's executor (dist.go), on the cheapest path that preserves its
// contract:
//
//   - item-local methods (VOTE) recompute only the dirty items;
//   - with a positive TrustTolerance, the ACCU family re-runs the
//     vote/posterior phase only for dirty items, warm-starting from the
//     previous trust and posteriors, and falls back to full re-fusion when
//     the trust vector drifts past the tolerance;
//   - everything else (and the default zero tolerance) re-runs the full
//     iteration on the incrementally maintained problem.
//
// On the default zero tolerance every path is bit-identical to a cold
// run on the target snapshot — a fresh Build and the same executor — so
// the incremental win is the problem maintenance and the item-local
// shortcut. A fleet worker (internal/dist) advances its owned shards
// through the same ShardedProblem.Advance and re-runs the full
// iteration with the coordinator. The equivalence tests and the frozen advance digests
// (testdata/golden_digests.txt) assert it method by method, at one shard
// and at many.

// State is a reusable fused state for one (dataset, source roster,
// method, layout) stream. Treat all fields as read-only once built.
type State struct {
	Sharded ShardedProblem
	Result  *Result

	method Method
	// plan is the decision of the advance that produced the state, which
	// Result.Plan and the advance's IncrementalStats.Plan point at.
	plan Plan
}

// Method returns the fusion method this state was built with.
func (st *State) Method() Method { return st.method }

// Answers renders the state's result as one Answer per claimed item, in
// item order.
func (st *State) Answers(ds *model.Dataset) []Answer {
	return AnswersForSharded(ds, &st.Sharded, st.Result)
}

// NewState fuses a snapshot from scratch over the shard set and captures
// the reusable state. sources follows Build's convention (nil = all
// sources); maxResident follows BuildSharded's.
func NewState(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID,
	spec model.ShardSpec, m Method, opts Options, maxResident int) (*State, error) {

	res, sp, err := FuseSharded(ds, snap, sources, spec, m, opts, maxResident)
	if err != nil {
		return nil, err
	}
	return &State{Sharded: *sp, Result: res, method: m}, nil
}

// IncrementalOptions tunes Advance.
type IncrementalOptions struct {
	// TrustTolerance bounds how far any source-trust entry may drift from
	// the previous state's converged trust while the dirty-only warm path
	// is still accepted; past it the engine falls back to full re-fusion.
	// The default 0 demands exactness: methods without an item-local
	// output always take the full path, so answers are bit-identical to a
	// from-scratch fuse of the target snapshot.
	TrustTolerance float64
	// Planner plans the advance path from the measured delta features
	// (churn fraction, shard fan-out): PlannerAuto applies the churn
	// ceiling to the warm path, PlannerForced executes exactly the named
	// path. Nil is the zero Planner: auto with the default ceiling. The
	// decision is recorded on Result.Plan and IncrementalStats.Plan.
	Planner *Planner
}

// AdvanceMode names the path Advance took.
type AdvanceMode string

// The Advance paths.
const (
	// ModeLocal recomputed only the dirty items (item-local method).
	ModeLocal AdvanceMode = "local"
	// ModeWarm ran the dirty-only warm iteration within the tolerance.
	ModeWarm AdvanceMode = "warm"
	// ModeFull re-ran the full iteration on the maintained problem.
	ModeFull AdvanceMode = "full"
)

// IncrementalStats reports what one Advance did.
type IncrementalStats struct {
	Mode AdvanceMode
	// DirtyItems is the number of problem items rebuilt for the target
	// snapshot; TotalItems the problem size.
	DirtyItems int
	TotalItems int
	// Fallback is set when the warm path was attempted but abandoned
	// because the trust vector drifted past the tolerance.
	Fallback bool
	// Plan is the recorded execution decision (same pointer as
	// Result.Plan).
	Plan *Plan
}

// ShardRebuilds records what one ShardedProblem.Advance rebuilt, shard
// by shard.
type ShardRebuilds struct {
	// Items[k] lists the rebuilt item indices of shard k's new problem
	// (none when shard k's delta was empty).
	Items [][]int
	// PrevIdx[k] maps shard k's new items onto its previous problem's,
	// -1 for rebuilt ones (alignItems); nil aligns identically. Filled
	// only when Advance is asked to align.
	PrevIdx [][]int
	// Dirty counts the rebuilt items, Shards the shards a delta touched.
	Dirty, Shards int
}

// Advance returns the shard set's next generation across one delta
// step: deltas[k] is part k's slice of a Delta.Split, the whole split in
// one process or a worker's owned slice in a fleet. Each touched part
// applies its slice and maintains its problem with UpdateProblem, so
// only the dirty items are rebuilt; untouched parts keep their snapshot,
// arena and recorded metadata. A delta that fails returns an error and
// no generation. The receiver is left as it was: under a memory budget
// its evicted arenas are rebuilt to be edited and dropped again, which
// shows only in its residency counters. With align, each touched part's
// new items are also mapped onto its previous problem's, while both
// arenas are loaded; the item-local and warm paths read the map.
func (sp *ShardedProblem) Advance(ds *model.Dataset, deltas []*model.Delta, parallelism int,
	align bool) (ShardedProblem, ShardRebuilds, error) {

	n := len(sp.parts)
	if len(deltas) != n {
		return ShardedProblem{}, ShardRebuilds{}, fmt.Errorf("fusion: %d shard deltas for %d shards", len(deltas), n)
	}
	needs := sp.needs
	needs.Parallelism = parallelism
	next := ShardedProblem{
		Spec:        sp.Spec,
		SourceIDs:   sp.SourceIDs,
		NumAttrs:    sp.NumAttrs,
		MaxResident: sp.MaxResident,
		parts:       make([]*shardPart, n),
		ds:          ds,
		needs:       needs,
	}
	work := make([][]int, 2*n)
	rb := ShardRebuilds{Items: work[:n:n], PrevIdx: work[n:]}
	for k, pt := range sp.parts {
		if deltas[k].Empty() {
			// Untouched shard: carry the snapshot, the arena (when
			// resident) and all recorded metadata forward — the day costs
			// nothing here beyond the global re-assembly.
			next.parts[k] = pt.carryForward()
			continue
		}
		rb.Shards++
		newSnap, err := pt.snap.Apply(deltas[k])
		if err != nil {
			return ShardedProblem{}, ShardRebuilds{}, fmt.Errorf("fusion: shard %d delta: %w", k, err)
		}
		prevP := sp.load(k)
		p, rebuilt := UpdateProblem(ds, newSnap, prevP, deltas[k].DirtyItems(), needs)
		npt := &shardPart{snap: newSnap, filter: pt.filter, resident: pt.resident}
		recordPart(npt, p)
		if npt.resident {
			npt.p = p
		}
		rb.Items[k] = rebuilt
		if align {
			rb.PrevIdx[k] = alignItems(p, prevP, rebuilt)
		}
		rb.Dirty += len(rebuilt)
		next.parts[k] = npt
		sp.release(k)
	}
	next.finishAssembly()
	return next, rb, nil
}

// Advance applies a delta to the state's shard set and re-fuses, reusing
// as much of the previous state as the method's contract allows (see the
// file comment). It returns a fresh state; the receiver stays valid, so
// earlier states of a stream can be advanced again (e.g. to branch a
// what-if delta), except under a memory budget, where non-resident shard
// problems are rebuilt from the new snapshots.
func (st *State) Advance(ds *model.Dataset, delta *model.Delta, opts Options,
	inc IncrementalOptions) (*State, IncrementalStats, error) {

	if st.Result == nil {
		return nil, IncrementalStats{}, fmt.Errorf("fusion: Advance on an empty state")
	}
	sp := &st.Sharded
	deltas, err := delta.Split(sp.Spec)
	if err != nil {
		return nil, IncrementalStats{}, err
	}
	// Vote is the item-local method; the ACCU family warm-starts, but not
	// a method whose run reads every item at once.
	m := st.method
	isLocal := m.kind == dkVote
	warmable := m.kind == dkAccu && !wholeRun(m) && inc.TrustTolerance > 0

	out := &State{method: m}
	var rb ShardRebuilds
	if out.Sharded, rb, err = sp.Advance(ds, deltas, opts.Parallelism, isLocal || warmable); err != nil {
		return nil, IncrementalStats{}, err
	}
	next := &out.Sharded
	stats := IncrementalStats{DirtyItems: rb.Dirty, TotalItems: next.NumItems()}
	start := time.Now()

	// One shard is the flat layout, recorded without shard features.
	features := PlanFeatures{DirtyItems: stats.DirtyItems, TotalItems: stats.TotalItems}
	features.ArenaBytes, _ = next.ArenaBytes()
	layout, resident := LayoutFlat, 0
	if len(next.parts) > 1 {
		layout, resident = LayoutSharded, next.MaxResident
		features.DirtyShards, features.TotalShards = rb.Shards, len(next.parts)
	}
	out.plan = computePlan(inc.Planner, layout, planCaps{itemLocal: isLocal, warmable: warmable},
		features, opts.Parallelism, resident)
	plan := &out.plan
	stats.Plan = plan

	if plan.Path == ModeLocal {
		if !isLocal {
			return nil, IncrementalStats{}, forcedPathError(plan.Path, m.name)
		}
		// Item-local fast path: clean items keep the previous answers,
		// shard by shard, each into its own range of the global answer
		// vector. Every other item (PrevIdx -1) keeps the zero, Vote's
		// dominant bucket, without loading its shard.
		chosen := make([]int32, next.NumItems())
		for k, npt := range next.parts {
			prevBase := sp.parts[k].base
			local := chosen[npt.base : npt.base+npt.n]
			for i := range local {
				pi := i
				if rb.PrevIdx[k] != nil {
					pi = rb.PrevIdx[k][i]
				}
				if pi >= 0 {
					local[i] = st.Result.Chosen[prevBase+pi]
				}
			}
		}
		out.Result = &Result{
			Method:    st.Result.Method,
			Chosen:    chosen,
			Rounds:    1,
			Converged: true,
			Elapsed:   time.Since(start),
			Plan:      plan,
		}
		stats.Mode = ModeLocal
		return out, stats, nil
	}

	if plan.Path == ModeWarm {
		if !warmable {
			return nil, IncrementalStats{}, forcedPathError(plan.Path, m.name)
		}
		if res, ok := runWarm(next, sp, m, opts, st.Result,
			rb.PrevIdx, rb.Items, inc.TrustTolerance); ok {
			res.Elapsed = time.Since(start)
			res.Plan = plan
			out.Result = res
			stats.Mode = ModeWarm
			return out, stats, nil
		}
		stats.Fallback = true
		plan.fellBack()
	}

	res, err := next.Run(m, opts)
	if err != nil {
		return nil, IncrementalStats{}, err
	}
	res.Plan = plan
	out.Result = res
	stats.Mode = ModeFull
	return out, stats, nil
}

// runWarm is the dirty-only warm path of the ACCU family: an executor
// seeded from prev (computed on prevSP) phases only each shard's rebuilt
// items — posteriors are recomputed only for them, clean items share
// prev's rows — while the loop re-estimates trust over every item from
// prev's converged trust. The iteration is accepted only while no trust
// entry drifts more than tol from prev's. It reports false — the caller
// re-runs the full iteration — when sampled trust is supplied (no
// estimation loop to warm), when prev lacks the state, or when the drift
// bound trips.
func runWarm(next, prevSP *ShardedProblem, m Method, opts Options, prev *Result,
	prevIdxOf, rebuiltOf [][]int, tol float64) (*Result, bool) {

	e, err := newExec(next, m, opts, nil, rebuiltOf)
	if err != nil || accuTrustGiven(e.opts, e.cfg) {
		return nil, false
	}
	base, ok := e.seedWarm(prevSP, prev, prevIdxOf)
	if !ok {
		return nil, false
	}
	res, err := e.run(base, tol)
	return res, err == nil
}

// alignItems maps the new problem's item indices onto the previous
// problem's, with -1 for items that were rebuilt (their index list is the
// sorted `rebuilt`) or did not exist before. Both item lists are sorted by
// ItemID, so one merge walk suffices.
func alignItems(p, prev *Problem, rebuilt []int) []int {
	prevIdx := make([]int, len(p.Items))
	ri, pi := 0, 0
	for i := range p.Items {
		if ri < len(rebuilt) && rebuilt[ri] == i {
			prevIdx[i] = -1
			ri++
			continue
		}
		for pi < len(prev.Items) && prev.Items[pi].Item < p.Items[i].Item {
			pi++
		}
		if pi < len(prev.Items) && prev.Items[pi].Item == p.Items[i].Item {
			prevIdx[i] = pi
			pi++
		} else {
			// A clean item must exist in the previous problem; treat a
			// miss as rebuilt-without-state so callers stay safe.
			prevIdx[i] = -1
		}
	}
	return prevIdx
}

// UpdateProblem builds the fusion problem for snap by editing prev: items
// outside `dirty` (sorted item IDs) keep their buckets and aux structures,
// dirty items are re-bucketized from the snapshot. Items whose attribute
// tolerance changed since prev was built are treated as dirty too. The
// result is bit-identical to Build(ds, snap, prev.SourceIDs, opts); the
// returned index list names the rebuilt entries of the new problem.
//
// The rebuilt items get arenas of their own while clean items keep
// sharing prev's. Once the items rebuilt since the last compaction reach
// half the problem, the whole problem is laid out afresh in one arena
// instead, so the copy costs at most twice the rebuild work done since.
func UpdateProblem(ds *model.Dataset, snap *model.Snapshot, prev *Problem, dirty []model.ItemID, opts BuildOptions) (*Problem, []int) {
	// Without the aux structures the reuse has nothing to save over Build;
	// also the safe path when prev was built with lighter needs.
	if (opts.NeedSimilarity && prev.Sim == nil) || (opts.NeedFormat && prev.Format == nil) {
		p := Build(ds, snap, prev.SourceIDs, opts)
		all := make([]int, len(p.Items))
		for i := range all {
			all[i] = i
		}
		return p, all
	}

	refs := make([]itemRef, 0, len(prev.Items)+len(dirty))
	nFresh := 0
	fresh := func(id model.ItemID) {
		refs = append(refs, itemRef{id: id, prev: -1})
		nFresh++
	}
	di := 0
	for pi := range prev.Items {
		id := prev.Items[pi].Item
		for di < len(dirty) && dirty[di] < id {
			fresh(dirty[di]) // item new to the problem
			di++
		}
		switch {
		case di < len(dirty) && dirty[di] == id:
			fresh(id)
			di++
		case prev.Items[pi].Tol != ds.Tolerance(prev.Items[pi].Attr):
			fresh(id) // tolerance regime moved under the item
		default:
			refs = append(refs, itemRef{id: id, prev: int32(pi)})
		}
	}
	for ; di < len(dirty); di++ {
		fresh(dirty[di])
	}

	since := prev.sinceCompact + nFresh
	compact := 2*since >= len(refs)
	p, rebuilt := assemble(ds, snap, prev.SourceIDs, prev, refs, compact, opts)
	if !compact {
		p.sinceCompact = prev.sinceCompact + len(rebuilt)
	}
	return p, rebuilt
}

// trustDrift returns the largest absolute difference between the current
// trust and the warm-start baseline.
func trustDrift(trust *accuTrust, baseGlobal []float64, baseKeyed [][]float64) float64 {
	var m float64
	if trust.keyed {
		for s := range trust.byKey {
			if d := maxDelta(trust.byKey[s], baseKeyed[s]); d > m {
				m = d
			}
		}
		return m
	}
	return maxDelta(trust.global, baseGlobal)
}
