package fusion

import (
	"fmt"

	"truthdiscovery/internal/model"
)

// The execution planner: one place that turns a day's measured delta into
// the path an Advance takes, instead of every caller hand-picking among
// the engine's three execution axes (flat/sharded, local/warm/full,
// serial/parallel). The decision inputs are cheap and exact — churn
// fraction, dirty-item and dirty-shard fan-out, the measured arena bytes
// — and the decision itself is recorded on the Result (and surfaced by
// the serving layer) so an operator can always audit why a path ran.
//
// The thresholds are seeded from the repo's own measurements: the
// incremental engine wins ~1.5-2.1x over full re-fusion at the Flight
// collection's ~3.5% daily churn and loses on the Stock simulator's
// >90%-churn days (PR 2), so the warm ceiling defaults to the geometric
// midpoint of those two regimes.

// PlanLayout names the problem layout an execution runs on.
type PlanLayout string

// The layouts.
const (
	// LayoutFlat is the one-shard layout: a single arena.
	LayoutFlat PlanLayout = "flat"
	// LayoutSharded is the layout of more than one item shard, with the
	// deterministic cross-shard trust merge.
	LayoutSharded PlanLayout = "sharded"
)

// PlannerMode selects how a plan is chosen.
type PlannerMode string

// The planner modes.
const (
	// PlannerAuto (the default) computes the plan from the delta features.
	PlannerAuto PlannerMode = "auto"
	// PlannerForced executes the path named by ForcePath.
	PlannerForced PlannerMode = "forced"
)

// DefaultWarmChurnCeiling is the churn fraction above which the auto
// planner stops choosing the warm dirty-only path. PR 2 measured the
// incremental win at ~3.5% churn (1.5-2.1x) and the loss at the paper's
// ~90%-churn stock days; the default is the geometric midpoint
// sqrt(0.035*0.9) of that decision boundary.
const DefaultWarmChurnCeiling = 0.18

// Planner tunes plan computation. The zero value is PlannerAuto with the
// default thresholds.
type Planner struct {
	// Mode selects auto planning or a forced plan ("" = auto).
	Mode PlannerMode
	// WarmChurnCeiling overrides DefaultWarmChurnCeiling (0 = default).
	// Above the ceiling the auto planner runs the exact full iteration
	// instead of attempting the warm path.
	WarmChurnCeiling float64
	// ArenaBudgetBytes, when positive, is the arena footprint the layout
	// planner aims to stay under: a state built without an explicit shard
	// count over a world whose estimated flat arena exceeds it is laid
	// out sharded with a resident budget (ResolveLayout).
	ArenaBudgetBytes int64
	// ForcePath names the forced execution path (PlannerForced only).
	ForcePath AdvanceMode
}

// withDefaults resolves the zero knobs.
func (pl Planner) withDefaults() Planner {
	if pl.WarmChurnCeiling == 0 {
		pl.WarmChurnCeiling = DefaultWarmChurnCeiling
	}
	return pl
}

// Validate checks the planner knobs.
func (pl Planner) Validate() error {
	if pl.WarmChurnCeiling < 0 || pl.WarmChurnCeiling > 1 {
		return fmt.Errorf("fusion: planner WarmChurnCeiling must be in [0, 1] (0 = default %.2f), got %g",
			DefaultWarmChurnCeiling, pl.WarmChurnCeiling)
	}
	if pl.ArenaBudgetBytes < 0 {
		return fmt.Errorf("fusion: planner ArenaBudgetBytes must be >= 0 (0 = unbounded), got %d", pl.ArenaBudgetBytes)
	}
	switch pl.Mode {
	case "", PlannerAuto:
		if pl.ForcePath != "" {
			return fmt.Errorf("fusion: planner ForcePath needs Mode %q, got mode %q", PlannerForced, pl.Mode)
		}
	case PlannerForced:
		switch pl.ForcePath {
		case ModeLocal, ModeWarm, ModeFull:
		default:
			return fmt.Errorf("fusion: forced planner needs ForcePath local, warm or full, got %q", pl.ForcePath)
		}
	default:
		return fmt.Errorf("fusion: unknown planner mode %q (want auto or forced)", pl.Mode)
	}
	return nil
}

// PlanFeatures are the measured delta features a plan was decided on.
type PlanFeatures struct {
	// DirtyItems / TotalItems are the rebuilt and total problem items of
	// the advance; ChurnFraction is their ratio.
	DirtyItems    int     `json:"dirty_items"`
	TotalItems    int     `json:"total_items"`
	ChurnFraction float64 `json:"churn_fraction"`
	// DirtyShards / TotalShards are the delta's shard fan-out (sharded
	// layout only; zero on the one-shard layout).
	DirtyShards int `json:"dirty_shards,omitempty"`
	TotalShards int `json:"total_shards,omitempty"`
	// ArenaBytes is the measured problem-arena footprint of the state the
	// plan executed on.
	ArenaBytes int64 `json:"arena_bytes,omitempty"`
}

// Plan is one advance's chosen execution, recorded on the Result.
type Plan struct {
	// Path is the executed path: local, warm or full. When a warm attempt
	// fell back (trust drift past the tolerance) this is the fallback
	// path and Reason says why.
	Path AdvanceMode `json:"path"`
	// Layout is the layout the advance ran on.
	Layout PlanLayout `json:"layout"`
	// ResidentShards is the sharded arena budget in effect (0 = all
	// resident; absent on the flat layout).
	ResidentShards int `json:"resident_shards,omitempty"`
	// Parallelism is the worker bound the advance ran with (0 =
	// GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// Forced marks a PlannerForced decision.
	Forced bool `json:"forced,omitempty"`
	// Reason is the human-readable decision trace.
	Reason string `json:"reason"`
	// Features are the measured inputs the decision was made on.
	Features PlanFeatures `json:"features"`
}

// planCaps are the method capabilities a path decision needs.
type planCaps struct {
	// itemLocal: the method recomputes exactly the dirty items (Vote).
	itemLocal bool
	// warmable: the method supports the dirty-only warm iteration and a
	// positive TrustTolerance enables it.
	warmable bool
}

// churn returns the dirty-item fraction of the features.
func (f PlanFeatures) churn() float64 {
	if f.TotalItems == 0 {
		return 0
	}
	return float64(f.DirtyItems) / float64(f.TotalItems)
}

// computePlan picks the execution path for one advance. layout, the
// resident budget and parallelism describe the state the advance runs on
// (the layout of a live state is fixed — switching it means rebuilding,
// which ResolveLayout decides once, not per day). A nil planner is the
// zero Planner: auto mode with the default warm ceiling.
func computePlan(pl *Planner, layout PlanLayout, caps planCaps, f PlanFeatures,
	parallelism, residentShards int) Plan {

	f.ChurnFraction = f.churn()
	plan := Plan{
		Layout:         layout,
		ResidentShards: residentShards,
		Parallelism:    parallelism,
		Features:       f,
	}
	if pl == nil {
		pl = &Planner{}
	}
	if pl.Mode == PlannerForced {
		plan.Forced = true
		plan.Path = pl.ForcePath
		plan.Reason = fmt.Sprintf("forced %s", pl.ForcePath)
		return plan
	}

	switch {
	case caps.itemLocal:
		plan.Path = ModeLocal
		plan.Reason = fmt.Sprintf("item-local method: exact recompute of %d dirty items", f.DirtyItems)
	case !caps.warmable:
		plan.Path = ModeFull
		plan.Reason = "no warm path (method not warmable or TrustTolerance 0): exact full iteration"
	default:
		ceiling := pl.withDefaults().WarmChurnCeiling
		if f.ChurnFraction <= ceiling {
			plan.Path = ModeWarm
			plan.Reason = fmt.Sprintf("churn %.1f%% <= warm ceiling %.1f%%: dirty-only warm iteration",
				100*f.ChurnFraction, 100*ceiling)
		} else {
			plan.Path = ModeFull
			plan.Reason = fmt.Sprintf("churn %.1f%% > warm ceiling %.1f%%: full iteration",
				100*f.ChurnFraction, 100*ceiling)
		}
	}
	return plan
}

// fellBack rewrites the plan after a warm attempt drifted past the
// tolerance and the advance re-ran the full iteration.
func (p *Plan) fellBack() {
	p.Reason = fmt.Sprintf("%s; trust drift past tolerance, fell back to full", p.Reason)
	p.Path = ModeFull
}

// forcedPathError reports a forced path the state's method cannot run.
func forcedPathError(path AdvanceMode, method string) error {
	return fmt.Errorf("fusion: forced plan path %q: method %s cannot run it (local needs an item-local method; warm needs an ACCU-family method and TrustTolerance > 0)", path, method)
}

// EstimateArenaBytes is the layout planner's pre-build arena estimate for
// a world of the given size: the per-item and per-claim footprint of a
// flat problem (item table, buckets, dense source lists, posterior rows)
// without building it. It intentionally over-counts slightly — choosing
// the sharded layout a little early costs nothing (answers are
// bit-identical), while under-counting would blow the budget.
func EstimateArenaBytes(numItems, numClaims int) int64 {
	const perItem = 160 // ProblemItem + bucket-offset + category + posterior row header
	const perClaim = 56 // bucket share + dense source index + posterior entry + aux
	return int64(numItems)*perItem + int64(numClaims)*perClaim
}

// PlanShards resolves the shard count and resident budget for a world
// of numItems items whose estimated flat arena exceeds the planner's
// budget: enough shards that one shard's arena fits the budget, each
// kept resident only while in use — but never more shards than items,
// since a shard smaller than one item cannot shrink the arena further.
// Returns (1, 0) — flat, all resident — when the estimate fits, no
// budget is set, or the world has fewer than two items.
func PlanShards(estimate, budgetBytes int64, numItems int) (shards, maxResident int) {
	if budgetBytes <= 0 || estimate <= budgetBytes || numItems < 2 {
		return 1, 0
	}
	shards = int(min((estimate+budgetBytes-1)/budgetBytes, int64(numItems)))
	return max(shards, 2), 1
}

// ResolveLayout picks a state's range-shard layout over snap: shards > 1
// range shards with maxResident as given; otherwise, when the planner
// sets an arena budget, PlanShards' layout for the world's estimated
// arena; otherwise one shard — the flat layout. Answers are bit-identical
// under every layout.
func ResolveLayout(snap *model.Snapshot, shards, maxResident int, pl *Planner) (model.ShardSpec, int) {
	if shards <= 1 {
		shards, maxResident = 1, 0
		if pl != nil && pl.ArenaBudgetBytes > 0 {
			est := EstimateArenaBytes(snap.NumItems(), snap.NumClaims())
			shards, maxResident = PlanShards(est, pl.ArenaBudgetBytes, snap.NumItems())
		}
	}
	return model.RangeShards(shards, snap.NumItems()), maxResident
}
