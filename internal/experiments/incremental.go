package experiments

import (
	"fmt"
	"time"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/report"
	"truthdiscovery/internal/value"
)

// IncrementalFusion measures the streaming-ingest path over the full
// collection period: every day after day 0 is consumed as a claim delta
// (model.Snapshot.Diff) feeding incremental fusion, instead of rebuilding
// and re-fusing each day's world from scratch. The exhibit reports, per
// method, the wall-clock of the two paths, the average daily churn, and
// verifies the incremental answers are identical to full re-fusion — the
// engine's exactness contract.
//
// The experiment derives one tolerance regime over the whole period (the
// streaming contract: a delta consumer cannot re-derive tolerances from a
// full snapshot it never sees) and restores the study-day tolerances
// afterwards, hence Exclusive.
func IncrementalFusion(e *Env) *report.Report {
	r := &report.Report{ID: "incremental", Title: "Incremental vs full fusion over the collection period"}
	for _, d := range e.Domains() {
		if !incrementalDomain(r, d) {
			return r
		}
	}
	r.Note("Incremental answers are asserted identical to full re-fusion (zero trust tolerance);")
	r.Note("the speedup comes from dirty-item problem maintenance and the item-local Vote path.")
	return r
}

// incrementalDomain runs the exhibit on one domain, always restoring the
// study snapshot's tolerances (even on early error returns — later
// experiments share the dataset).
func incrementalDomain(r *report.Report, d *Domain) bool {
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
	var ops, claims int
	for day := 1; day < d.Days; day++ {
		delta, err := snaps[day-1].Diff(snaps[day])
		if err != nil {
			r.Note("%s: diff failed: %v", d.Name, err)
			return false
		}
		deltas[day-1] = delta
		ops += delta.Size()
		claims += snaps[day].NumClaims()
	}

	t := r.NewTable(fmt.Sprintf("%s (%d days)", d.Name, d.Days),
		"Method", "Full (ms)", "Incremental (ms)", "Speedup", "Dirty items/day", "Identical")
	for _, name := range []string{"Vote", "AccuPr", "AccuFormatAttr"} {
		m, _ := fusion.ByName(name)
		opts := d.FusionOpts(fusion.Options{})
		needs := m.Needs()
		needs.Parallelism = d.Par

		// Full path: rebuild and re-fuse every day's world.
		start := time.Now()
		full := make([]*fusion.Result, d.Days)
		for day := range snaps {
			p := fusion.Build(d.DS, snaps[day], d.Fused, needs)
			full[day] = m.Run(p, opts)
		}
		fullDur := time.Since(start)

		// Incremental path: fuse day 0, then advance over the deltas.
		start = time.Now()
		st, err := fusion.NewState(d.DS, snaps[0], d.Fused, model.RangeShards(1, snaps[0].NumItems()), m, opts, 0)
		if err != nil {
			r.Note("%s/%s: fused state failed: %v", d.Name, name, err)
			return false
		}
		identical := sameChosen(st.Result, full[0])
		var dirty, total int
		for day := 1; day < d.Days; day++ {
			next, stats, err := st.Advance(d.DS, deltas[day-1], opts, fusion.IncrementalOptions{})
			if err != nil {
				r.Note("%s/%s: advance failed: %v", d.Name, name, err)
				return false
			}
			dirty += stats.DirtyItems
			total += stats.TotalItems
			identical = identical && sameChosen(next.Result, full[day])
			st = next
		}
		incDur := time.Since(start)

		speedup := "n/a"
		if incDur > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(fullDur)/float64(incDur))
		}
		days := float64(d.Days - 1)
		t.AddRow(name,
			fmt.Sprintf("%d", fullDur.Milliseconds()),
			fmt.Sprintf("%d", incDur.Milliseconds()),
			speedup,
			fmt.Sprintf("%.0f of %.0f (%.1f%%)", float64(dirty)/days, float64(total)/days,
				100*float64(dirty)/float64(max(total, 1))),
			fmt.Sprintf("%v", identical))
	}
	r.Note("%s: %d delta ops over %d claims across %d day transitions.",
		d.Name, ops, claims, d.Days-1)
	return true
}

// sameChosen compares the winning buckets of two runs.
func sameChosen(a, b *fusion.Result) bool {
	if len(a.Chosen) != len(b.Chosen) {
		return false
	}
	for i := range a.Chosen {
		if a.Chosen[i] != b.Chosen[i] {
			return false
		}
	}
	return true
}
