package experiments

import (
	"fmt"
	"time"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/report"
	"truthdiscovery/internal/value"
)

// PlannedFusion exhibits the adaptive execution planner over the
// collection period: every day after day 0 is consumed as a claim delta
// and the planner picks each advance's path (local, warm, full) from the
// day's measured churn, against a forced-full baseline on the same
// maintained problems. The exhibit reports the wall-clock of both, the
// paths the planner chose day by day, and any warm attempts that
// drifted past the tolerance and fell back. Like the incremental
// exhibit it re-derives (then restores) tolerances over the whole
// period, hence Exclusive.
func PlannedFusion(e *Env) *report.Report {
	r := &report.Report{ID: "planner", Title: "Adaptive execution planning over the period"}
	for _, d := range e.Domains() {
		if !plannedDomain(r, d) {
			return r
		}
	}
	r.Note("Planned advances run under PlannerAuto with a 0.05 trust tolerance; the planner")
	r.Note("chooses warm only below the churn ceiling (default %.0f%%) and records every decision.", 100*fusion.DefaultWarmChurnCeiling)
	r.Note("At zero tolerance every planned path is bit-identical to full re-fusion (asserted in the test suite).")
	return r
}

// plannedDomain runs the exhibit on one domain, always restoring the
// study snapshot's tolerances.
func plannedDomain(r *report.Report, d *Domain) bool {
	defer d.DS.ComputeTolerances(value.DefaultAlpha, d.Snap)
	snaps := make([]*model.Snapshot, d.Days)
	for day := 0; day < d.Days; day++ {
		if day == d.Day {
			snaps[day] = d.Snap
		} else {
			snaps[day] = d.Gen.Snapshot(day)
		}
	}
	d.DS.ComputeTolerances(value.DefaultAlpha, snaps...)

	deltas := make([]*model.Delta, d.Days-1)
	for day := 1; day < d.Days; day++ {
		delta, err := snaps[day-1].Diff(snaps[day])
		if err != nil {
			r.Note("%s: diff failed: %v", d.Name, err)
			return false
		}
		deltas[day-1] = delta
	}

	t := r.NewTable(fmt.Sprintf("%s (%d days)", d.Name, d.Days),
		"Method", "Forced full (ms)", "Planned (ms)", "Speedup", "Avg churn", "Paths chosen")
	for _, name := range []string{"Vote", "AccuPr", "AccuFormatAttr"} {
		m, _ := fusion.ByName(name)
		opts := d.FusionOpts(fusion.Options{})
		opts.Parallelism = d.Par

		full := &fusion.Planner{Mode: fusion.PlannerForced, ForcePath: fusion.ModeFull}
		fullDur, _, _, ok := plannedStream(r, d, snaps, deltas, m, opts,
			fusion.IncrementalOptions{Planner: full})
		if !ok {
			return false
		}

		auto := &fusion.Planner{Mode: fusion.PlannerAuto}
		planDur, paths, churn, ok := plannedStream(r, d, snaps, deltas, m, opts,
			fusion.IncrementalOptions{TrustTolerance: 0.05, Planner: auto})
		if !ok {
			return false
		}

		speedup := "n/a"
		if planDur > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(fullDur)/float64(planDur))
		}
		t.AddRow(name,
			fmt.Sprintf("%d", fullDur.Milliseconds()),
			fmt.Sprintf("%d", planDur.Milliseconds()),
			speedup,
			fmt.Sprintf("%.1f%%", 100*churn),
			paths)
	}
	return true
}

// plannedStream advances one method over the delta stream under the
// given incremental options and summarises the planner's decisions:
// elapsed wall-clock, a "path xN" roll-up in first-seen order (fallbacks
// counted separately), and the mean daily churn fraction.
func plannedStream(r *report.Report, d *Domain, snaps []*model.Snapshot, deltas []*model.Delta,
	m fusion.Method, opts fusion.Options, inc fusion.IncrementalOptions) (time.Duration, string, float64, bool) {

	start := time.Now()
	st, err := fusion.NewState(d.DS, snaps[0], d.Fused, model.RangeShards(1, snaps[0].NumItems()), m, opts, 0)
	if err != nil {
		r.Note("%s/%s: fused state failed: %v", d.Name, m.Name(), err)
		return 0, "", 0, false
	}
	counts := map[string]int{}
	var order []string
	var churn float64
	for day := 1; day < len(snaps); day++ {
		next, stats, err := st.Advance(d.DS, deltas[day-1], opts, inc)
		if err != nil {
			r.Note("%s/%s: planned advance failed: %v", d.Name, m.Name(), err)
			return 0, "", 0, false
		}
		key := string(stats.Mode)
		if stats.Fallback {
			key = "warm→full"
		}
		if counts[key] == 0 {
			order = append(order, key)
		}
		counts[key]++
		if stats.Plan != nil {
			churn += stats.Plan.Features.ChurnFraction
		}
		st = next
	}
	elapsed := time.Since(start)

	paths := ""
	for _, k := range order {
		if paths != "" {
			paths += " "
		}
		paths += fmt.Sprintf("%s x%d", k, counts[k])
	}
	days := len(snaps) - 1
	if days > 0 {
		churn /= float64(days)
	}
	return elapsed, paths, churn, true
}
