package fusion

import (
	"fmt"
	"time"

	"truthdiscovery/internal/model"
)

// ShardedState composes the sharded engine with the streaming engine:
// a reusable fused state over a sharded problem that advances across
// model.Delta streams. Each day's delta is routed to the item shards
// with Delta.Split (deltas partition cleanly by item), every shard
// applies its slice and maintains its problem independently via
// UpdateProblem — per-shard dirty worklists, clean items keep sharing
// their arenas bit-for-bit — and the method then re-runs with the single
// deterministic cross-shard trust merge. Answers stay bit-identical to
// full Fuse on the target snapshot (and therefore to the flat
// incremental engine at zero trust tolerance), which the sharded
// equivalence tests assert.
type ShardedState struct {
	Sharded *ShardedProblem
	Result  *Result

	method Method
}

// Method returns the fusion method this state was built with.
func (st *ShardedState) Method() Method { return st.method }

// NewShardedState fuses a snapshot from scratch over the shard set and
// captures the reusable state. sources follows Build's convention
// (nil = all sources); maxResident follows BuildSharded's.
func NewShardedState(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID,
	spec model.ShardSpec, m Method, opts Options, maxResident int) (*ShardedState, error) {

	res, sp, err := FuseSharded(ds, snap, sources, spec, m, opts, maxResident)
	if err != nil {
		return nil, err
	}
	return &ShardedState{Sharded: sp, Result: res, method: m}, nil
}

// Advance applies a delta to the state's shard set and re-fuses. The
// delta is split by item shard; each shard applies its slice to its own
// snapshot and maintains its problem incrementally (only that shard's
// dirty items are re-bucketized). Item-local methods (VOTE) then
// recompute exactly the dirty items; with a positive TrustTolerance the
// ACCU family runs warm (runWarm: the round protocol's ACCU loop from the
// previous trust, phasing only each shard's rebuilt items, with a drift
// fallback to the full run — bit-identical to the flat accuWarm);
// everything else re-runs the full sharded iteration on the maintained
// problems. At zero tolerance every path is bit-identical to a full Fuse
// of the target snapshot, exactly as on the flat engine.
//
// The receiver stays valid: earlier states of a stream can be advanced
// again (e.g. to branch a what-if delta), except under a memory budget,
// where non-resident shard problems are rebuilt from the new snapshots.
func (st *ShardedState) Advance(ds *model.Dataset, delta *model.Delta, opts Options,
	inc IncrementalOptions) (*ShardedState, IncrementalStats, error) {

	if st.Sharded == nil || st.Result == nil {
		return nil, IncrementalStats{}, fmt.Errorf("fusion: Advance on an empty sharded state")
	}
	sp := st.Sharded
	parts, err := delta.Split(sp.Spec)
	if err != nil {
		return nil, IncrementalStats{}, err
	}

	needs := sp.needs
	needs.Parallelism = opts.Parallelism
	next := &ShardedProblem{
		Spec:        sp.Spec,
		SourceIDs:   sp.SourceIDs,
		NumAttrs:    sp.NumAttrs,
		MaxResident: sp.MaxResident,
		ds:          ds,
		needs:       needs,
	}
	stats := IncrementalStats{}
	// rebuiltOf[k] lists the rebuilt item indices of shard k's new
	// problem; prevIdxOf[k] aligns the new problem's items to the old
	// one's (the item-local fast path reads both; nil means the shard
	// was untouched and aligns identically).
	rebuiltOf := make([][]int, len(sp.parts))
	prevIdxOf := make([][]int, len(sp.parts))
	lm, isLocal := st.method.(ItemLocal)
	_, isAccu := st.method.(accuConfigured)
	warmable := isAccu && inc.TrustTolerance > 0
	dirtyShards := 0

	for k, pt := range sp.parts {
		if parts[k].Empty() {
			// Untouched shard: carry the snapshot, the arena (when
			// resident) and all recorded metadata forward — the day costs
			// nothing here beyond the global re-assembly.
			next.parts = append(next.parts, pt.carryForward())
			continue
		}
		dirtyShards++
		newSnap, err := pt.snap.Apply(parts[k])
		if err != nil {
			return nil, IncrementalStats{}, err
		}
		prevP := sp.load(k)
		p, rebuilt := UpdateProblem(ds, newSnap, prevP, parts[k].DirtyItems(), needs)
		npt := &shardPart{snap: newSnap, filter: pt.filter}
		recordPart(npt, p)
		npt.resident = pt.resident
		if npt.resident {
			npt.p = p
		}
		rebuiltOf[k] = rebuilt
		if isLocal || warmable {
			prevIdxOf[k] = alignItems(p, prevP, rebuilt)
		}
		stats.DirtyItems += len(rebuilt)
		next.parts = append(next.parts, npt)
		sp.release(k)
	}
	next.finishAssembly()
	stats.TotalItems = next.NumItems()

	out := &ShardedState{Sharded: next, method: st.method}
	start := time.Now()

	arenaTotal, _ := next.ArenaBytes()
	plan := computePlan(inc.Planner, LayoutSharded,
		planCaps{itemLocal: isLocal, warmable: warmable},
		PlanFeatures{
			DirtyItems:  stats.DirtyItems,
			TotalItems:  stats.TotalItems,
			DirtyShards: dirtyShards,
			TotalShards: len(next.parts),
			ArenaBytes:  arenaTotal,
		}, opts.Parallelism, next.MaxResident)
	stats.Plan = &plan

	if plan.Path == ModeLocal {
		if !isLocal {
			return nil, IncrementalStats{}, forcedPathError(plan.Path, st.method.Name())
		}
		// Item-local fast path: clean items keep the previous answers,
		// dirty items are recomputed shard by shard.
		chosen := make([]int32, next.NumItems())
		for k, npt := range next.parts {
			prevGidx := sp.parts[k].gidx
			local := make([]int32, len(npt.items))
			if prevIdxOf[k] != nil {
				for i, pi := range prevIdxOf[k] {
					if pi >= 0 {
						local[i] = st.Result.Chosen[prevGidx[pi]]
					}
				}
			} else {
				// Untouched shard: the item lists are identical, so the
				// previous answers carry over index for index.
				for i := range local {
					local[i] = st.Result.Chosen[prevGidx[i]]
				}
			}
			if len(rebuiltOf[k]) > 0 {
				lm.RunItems(next.load(k), opts, rebuiltOf[k], local)
				next.release(k)
			}
			for i, g := range npt.gidx {
				chosen[g] = local[i]
			}
		}
		out.Result = &Result{
			Method:    st.Result.Method,
			Chosen:    chosen,
			Rounds:    1,
			Converged: true,
			Elapsed:   time.Since(start),
			Plan:      &plan,
		}
		stats.Mode = ModeLocal
		return out, stats, nil
	}

	if plan.Path == ModeWarm {
		if !warmable {
			return nil, IncrementalStats{}, forcedPathError(plan.Path, st.method.Name())
		}
		if res, ok := runWarm(next, sp, st.method, opts, st.Result,
			prevIdxOf, rebuiltOf, inc.TrustTolerance); ok {
			res.Elapsed = time.Since(start)
			res.Plan = &plan
			out.Result = res
			stats.Mode = ModeWarm
			return out, stats, nil
		}
		stats.Fallback = true
		plan.fellBack()
	}

	res, err := next.Run(st.method, opts)
	if err != nil {
		return nil, IncrementalStats{}, err
	}
	res.Plan = &plan
	out.Result = res
	stats.Mode = ModeFull
	return out, stats, nil
}

// runWarm is the dirty-only warm path over the shard set: an executor
// seeded from prev (computed on prevSP) phases only each shard's rebuilt
// items while the ACCU loop re-estimates trust over every item from
// prev's converged trust. It reports false — the caller re-runs the full
// iteration — when sampled trust is supplied, when prev lacks the state,
// or when a trust entry drifts more than tol from prev's. On the same
// snapshot and tolerance the result is bit-identical to the flat
// accuWarm: same tables, same per-item kernel, same global-item-order
// fold, same drift test.
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
