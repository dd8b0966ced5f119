package fusion

import (
	"strings"
	"testing"
)

// The planner's decision thresholds are part of the engine contract:
// these tests pin the path computePlan picks for every capability/knob
// combination, so a threshold change is a deliberate, reviewed edit.

func TestComputePlanPaths(t *testing.T) {
	auto := &Planner{Mode: PlannerAuto}
	cases := []struct {
		name string
		pl   *Planner
		caps planCaps
		f    PlanFeatures
		want AdvanceMode
	}{
		{"item-local wins regardless of churn", auto,
			planCaps{itemLocal: true}, PlanFeatures{DirtyItems: 95, TotalItems: 100}, ModeLocal},
		{"not warmable falls to full", auto,
			planCaps{}, PlanFeatures{DirtyItems: 1, TotalItems: 100}, ModeFull},
		{"warm below the ceiling", auto,
			planCaps{warmable: true}, PlanFeatures{DirtyItems: 4, TotalItems: 100}, ModeWarm},
		{"warm at the ceiling exactly", auto,
			planCaps{warmable: true}, PlanFeatures{DirtyItems: 18, TotalItems: 100}, ModeWarm},
		{"full above the ceiling", auto,
			planCaps{warmable: true}, PlanFeatures{DirtyItems: 90, TotalItems: 100}, ModeFull},
		{"nil planner is auto", nil,
			planCaps{warmable: true}, PlanFeatures{DirtyItems: 90, TotalItems: 100}, ModeFull},
		{"custom ceiling", &Planner{Mode: PlannerAuto, WarmChurnCeiling: 0.5},
			planCaps{warmable: true}, PlanFeatures{DirtyItems: 40, TotalItems: 100}, ModeWarm},
		{"forced full ignores capabilities", &Planner{Mode: PlannerForced, ForcePath: ModeFull},
			planCaps{itemLocal: true}, PlanFeatures{DirtyItems: 1, TotalItems: 100}, ModeFull},
		{"forced warm ignores the ceiling", &Planner{Mode: PlannerForced, ForcePath: ModeWarm},
			planCaps{warmable: true}, PlanFeatures{DirtyItems: 95, TotalItems: 100}, ModeWarm},
		{"empty delta is zero churn", auto,
			planCaps{warmable: true}, PlanFeatures{}, ModeWarm},
	}
	for _, tc := range cases {
		plan := computePlan(tc.pl, LayoutFlat, tc.caps, tc.f, 0, 0)
		if plan.Path != tc.want {
			t.Errorf("%s: path %s, want %s (reason: %s)", tc.name, plan.Path, tc.want, plan.Reason)
		}
		if plan.Reason == "" {
			t.Errorf("%s: empty decision reason", tc.name)
		}
		if wantForced := tc.pl != nil && tc.pl.Mode == PlannerForced; plan.Forced != wantForced {
			t.Errorf("%s: forced %v, want %v", tc.name, plan.Forced, wantForced)
		}
	}
}

func TestComputePlanFeatures(t *testing.T) {
	plan := computePlan(&Planner{}, LayoutSharded,
		planCaps{warmable: true},
		PlanFeatures{DirtyItems: 7, TotalItems: 200, DirtyShards: 2, TotalShards: 4, ArenaBytes: 4096},
		3, 1)
	if plan.Layout != LayoutSharded || plan.ResidentShards != 1 || plan.Parallelism != 3 {
		t.Fatalf("execution shape not recorded: %+v", plan)
	}
	f := plan.Features
	if f.ChurnFraction != 7.0/200 {
		t.Fatalf("churn %g, want %g", f.ChurnFraction, 7.0/200)
	}
	if f.DirtyShards != 2 || f.TotalShards != 4 || f.ArenaBytes != 4096 {
		t.Fatalf("features not carried: %+v", f)
	}
}

func TestPlanFellBack(t *testing.T) {
	plan := computePlan(&Planner{}, LayoutFlat, planCaps{warmable: true},
		PlanFeatures{DirtyItems: 1, TotalItems: 100}, 0, 0)
	if plan.Path != ModeWarm {
		t.Fatalf("setup: path %s", plan.Path)
	}
	plan.fellBack()
	if plan.Path != ModeFull {
		t.Fatalf("fallback path %s, want full", plan.Path)
	}
	if !strings.Contains(plan.Reason, "fell back") {
		t.Fatalf("fallback not traced in reason: %q", plan.Reason)
	}
}

func TestPlannerValidate(t *testing.T) {
	cases := []struct {
		name string
		pl   Planner
		want string // substring of the error; "" = valid
	}{
		{"zero value", Planner{}, ""},
		{"auto", Planner{Mode: PlannerAuto, WarmChurnCeiling: 0.5}, ""},
		{"forced full", Planner{Mode: PlannerForced, ForcePath: ModeFull}, ""},
		{"negative ceiling", Planner{WarmChurnCeiling: -0.1}, "WarmChurnCeiling"},
		{"ceiling past one", Planner{WarmChurnCeiling: 1.5}, "WarmChurnCeiling"},
		{"negative budget", Planner{ArenaBudgetBytes: -1}, "ArenaBudgetBytes"},
		{"force path without forced mode", Planner{ForcePath: ModeFull}, "ForcePath"},
		{"forced without a path", Planner{Mode: PlannerForced}, "ForcePath"},
		{"forced bad path", Planner{Mode: PlannerForced, ForcePath: "sideways"}, "ForcePath"},
		{"unknown mode", Planner{Mode: "manual"}, "mode"},
	}
	for _, tc := range cases {
		err := tc.pl.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestPlanShards(t *testing.T) {
	cases := []struct {
		estimate, budget int64
		items            int
		shards, resident int
	}{
		{1 << 20, 0, 100, 1, 0},       // no budget: flat
		{1 << 20, 1 << 21, 100, 1, 0}, // fits: flat
		{1 << 21, 1 << 20, 100, 2, 1}, // 2x over: two shards, one resident
		{10<<20 + 1, 1 << 20, 100, 11, 1},
		{10<<20 + 1, 1 << 20, 7, 7, 1}, // capped at one shard per item
		{1 << 20, 1, 3, 3, 1},          // a budget below one item
		{1 << 20, 1, 1, 1, 0},          // one item cannot split
	}
	for _, tc := range cases {
		shards, resident := PlanShards(tc.estimate, tc.budget, tc.items)
		if shards != tc.shards || resident != tc.resident {
			t.Errorf("PlanShards(%d, %d, %d) = (%d, %d), want (%d, %d)",
				tc.estimate, tc.budget, tc.items, shards, resident, tc.shards, tc.resident)
		}
	}
	if EstimateArenaBytes(100, 1000) <= 0 {
		t.Fatal("estimate not positive")
	}
	if EstimateArenaBytes(200, 2000) <= EstimateArenaBytes(100, 1000) {
		t.Fatal("estimate not monotone in world size")
	}
}
