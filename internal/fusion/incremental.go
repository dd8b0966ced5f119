package fusion

import (
	"fmt"
	"time"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/parallel"
)

// This file is the streaming half of the fusion engine. A State captures
// one finished fusion run — the snapshot, the problem and the result with
// its posteriors — and Advance moves it across a model.Delta: the problem
// is maintained incrementally (only dirty items are re-bucketized and get
// fresh similarity/format structures), and the method re-runs on the
// cheapest path that preserves its contract:
//
//   - item-local methods (VOTE) recompute only the dirty items;
//   - with a positive TrustTolerance, the ACCU family re-runs the
//     vote/posterior phase only for dirty items, warm-starting from the
//     previous trust and posteriors, and falls back to full re-fusion when
//     the trust vector drifts past the tolerance;
//   - everything else (and the default zero tolerance) re-runs the full
//     iteration on the incrementally maintained problem.
//
// On the default zero tolerance every path is bit-identical to building
// the target snapshot's problem from scratch and calling Method.Run — the
// incremental win is the problem maintenance and the item-local shortcut
// — which the equivalence tests assert method by method.

// State is a reusable fused state for one (dataset, source roster, method)
// stream. Treat all fields as read-only once built.
type State struct {
	Snap    *model.Snapshot
	Problem *Problem
	Result  *Result

	method    Method
	buildOpts BuildOptions
}

// Method returns the fusion method this state was built with.
func (st *State) Method() Method { return st.method }

// NewState fuses a snapshot from scratch and captures the reusable state.
// sources follows Build's convention (nil = all sources).
func NewState(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID, m Method, opts Options) *State {
	needs := m.Needs()
	needs.Parallelism = opts.Parallelism
	p := Build(ds, snap, sources, needs)
	return &State{
		Snap:      snap,
		Problem:   p,
		Result:    m.Run(p, opts),
		method:    m,
		buildOpts: needs,
	}
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
	// Planner, when set, plans the advance path from the measured delta
	// features (churn fraction, shard fan-out) instead of the legacy
	// tolerance-only gating — PlannerAuto applies the churn ceiling to
	// the warm path, PlannerForced executes exactly the named path. Nil
	// keeps the legacy gating. Either way the decision is recorded on
	// Result.Plan and IncrementalStats.Plan.
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

// ItemLocal is implemented by methods whose output on an item depends only
// on that item's own claims — no cross-item trust coupling — so advancing
// a state needs to recompute exactly the dirty items. RunItems must write
// chosen[i] for every i in idx, matching what Run would choose.
type ItemLocal interface {
	RunItems(p *Problem, opts Options, idx []int, chosen []int32)
}

// accuConfigured is implemented by the ACCU-family methods that support
// the warm dirty-only path (AccuCopy's detector is global and excluded).
type accuConfigured interface {
	accuCfg() accuConfig
}

func (AccuPr) accuCfg() accuConfig  { return accuConfig{name: "AccuPr"} }
func (PopAccu) accuCfg() accuConfig { return accuConfig{name: "PopAccu", popularity: true} }
func (AccuSim) accuCfg() accuConfig { return accuConfig{name: "AccuSim", sim: true} }
func (AccuFormat) accuCfg() accuConfig {
	return accuConfig{name: "AccuFormat", sim: true, format: true}
}
func (AccuSimAttr) accuCfg() accuConfig {
	return accuConfig{name: "AccuSimAttr", sim: true, perAttr: true}
}
func (AccuFormatAttr) accuCfg() accuConfig {
	return accuConfig{name: "AccuFormatAttr", sim: true, format: true, perAttr: true}
}

// Advance applies a delta to the state's snapshot and re-fuses, reusing as
// much of the previous state as the method's contract allows. It returns a
// fresh state (the receiver stays valid: earlier states of a stream can be
// advanced again, e.g. to branch a what-if delta).
func (st *State) Advance(ds *model.Dataset, delta *model.Delta, opts Options, inc IncrementalOptions) (*State, IncrementalStats, error) {
	if st.Snap == nil || st.Problem == nil || st.Result == nil {
		return nil, IncrementalStats{}, fmt.Errorf("fusion: Advance on an empty state")
	}
	snap, err := st.Snap.Apply(delta)
	if err != nil {
		return nil, IncrementalStats{}, err
	}
	needs := st.buildOpts
	needs.Parallelism = opts.Parallelism
	p, rebuilt := UpdateProblem(ds, snap, st.Problem, delta.DirtyItems(), needs)
	stats := IncrementalStats{DirtyItems: len(rebuilt), TotalItems: len(p.Items)}

	// prevIdx[i] is the previous problem's index of (clean) item i, -1 for
	// rebuilt or new items.
	prevIdx := alignItems(p, st.Problem, rebuilt)

	next := &State{Snap: snap, Problem: p, method: st.method, buildOpts: st.buildOpts}
	start := time.Now()

	lm, isLocal := st.method.(ItemLocal)
	ac, isAccu := st.method.(accuConfigured)
	plan := computePlan(inc.Planner, LayoutFlat,
		planCaps{itemLocal: isLocal, warmable: isAccu && inc.TrustTolerance > 0},
		PlanFeatures{
			DirtyItems: len(rebuilt),
			TotalItems: len(p.Items),
			ArenaBytes: problemArenaBytes(p),
		}, opts.Parallelism, 0)
	stats.Plan = &plan

	if plan.Path == ModeLocal {
		if !isLocal {
			return nil, IncrementalStats{}, forcedPathError(plan.Path, st.method.Name())
		}
		chosen := make([]int32, len(p.Items))
		for i, pi := range prevIdx {
			if pi >= 0 {
				chosen[i] = st.Result.Chosen[pi]
			}
		}
		lm.RunItems(p, opts, rebuilt, chosen)
		next.Result = &Result{
			Method:    st.Result.Method,
			Chosen:    chosen,
			Rounds:    1,
			Converged: true,
			Elapsed:   time.Since(start),
			Plan:      &plan,
		}
		stats.Mode = ModeLocal
		return next, stats, nil
	}

	if plan.Path == ModeWarm {
		if !isAccu || inc.TrustTolerance <= 0 {
			return nil, IncrementalStats{}, forcedPathError(plan.Path, st.method.Name())
		}
		if res, ok := accuWarm(p, opts, ac.accuCfg(), st.Result, prevIdx, rebuilt, inc.TrustTolerance); ok {
			res.Elapsed = time.Since(start)
			res.Plan = &plan
			next.Result = res
			stats.Mode = ModeWarm
			return next, stats, nil
		}
		stats.Fallback = true
		plan.fellBack()
	}

	next.Result = st.method.Run(p, opts)
	next.Result.Plan = &plan
	stats.Mode = ModeFull
	return next, stats, nil
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

// accuWarm is the dirty-only warm path of the ACCU family: posteriors are
// recomputed only for the rebuilt items, trust is re-estimated over the
// full item set (reading the previous posteriors for clean items), and the
// iteration is accepted only while no trust entry drifts more than tol
// from the previous converged trust. Returns ok=false — fall back to full
// re-fusion — when the drift bound trips, when sampled trust is supplied
// (no estimation loop to warm), or when the previous result lacks the
// needed state.
func accuWarm(p *Problem, opts Options, cfg accuConfig, prev *Result, prevIdx, dirtyIdx []int, tol float64) (*Result, bool) {
	opts = opts.withDefaults()
	if opts.InputTrust != nil || (cfg.perAttr && opts.InputAttrTrust != nil) {
		return nil, false
	}
	if prev.Posteriors == nil || prev.Chosen == nil {
		return nil, false
	}
	numKeys, keyOf := keySetup(p, cfg)
	trust := &accuTrust{keyed: numKeys > 0}
	var baseGlobal []float64
	var baseKeyed [][]float64
	if trust.keyed {
		if prev.AttrTrust == nil {
			return nil, false // keyed state not carried (e.g. perCat)
		}
		trust.byKey = make([][]float64, len(prev.AttrTrust))
		baseKeyed = make([][]float64, len(prev.AttrTrust))
		for s := range prev.AttrTrust {
			if len(prev.AttrTrust[s]) != numKeys {
				return nil, false
			}
			trust.byKey[s] = append([]float64(nil), prev.AttrTrust[s]...)
			baseKeyed[s] = prev.AttrTrust[s]
		}
	} else {
		if prev.Trust == nil {
			return nil, false
		}
		trust.global = append([]float64(nil), prev.Trust...)
		baseGlobal = prev.Trust
	}

	// Posteriors: clean items share the previous rows (read-only), rebuilt
	// items get fresh rows seeded with the VOTE prior like a cold start.
	probs := make([][]float64, len(p.Items))
	chosen := make([]int32, len(p.Items))
	for i := range p.Items {
		if pi := prevIdx[i]; pi >= 0 {
			probs[i] = prev.Posteriors[pi]
			chosen[i] = prev.Chosen[pi]
			continue
		}
		it := &p.Items[i]
		row := make([]float64, len(it.Buckets))
		for b, bk := range it.Buckets {
			row[b] = float64(len(bk.Sources)) / float64(it.Providers)
		}
		probs[i] = row
	}

	res := &Result{Method: cfg.name}
	sc := newAccuScratch(p, numKeys, opts, cfg)
	postPhase := accuPostPhase(p, opts, cfg, keyOf, sc, probs, chosen, dirtyIdx, nil)
	for round := 1; ; round++ {
		res.Rounds = round
		sc.tables.update(trust)
		parallel.ForWorker(len(dirtyIdx), sc.temps.workers, postPhase)
		delta := accuReestimate(p, trust, probs, keyOf, numKeys, sc)
		if drift := trustDrift(trust, baseGlobal, baseKeyed); drift > tol {
			return nil, false
		}
		if delta < opts.Epsilon || round >= opts.MaxRounds {
			res.Converged = delta < opts.Epsilon
			break
		}
	}

	accuFinish(p, cfg, trust, probs, chosen, keyOf, res)
	return res, true
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
