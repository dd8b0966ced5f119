package experiments

import (
	"fmt"
	"time"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/report"
	"truthdiscovery/internal/value"
)

// ShardedFusion exhibits the sharded engine on both study snapshots:
// every method runs flat, sharded with all arenas resident, and sharded
// under a one-shard memory budget, with the answers verified identical
// across all three paths (the engine's bit-identity contract) and the
// arena residency reported — the flat ceiling vs the budgeted peak.
// Config.Shards picks the shard count (default 4) and
// Config.MaxResidentShards the budgeted residency (default 1).
func ShardedFusion(e *Env) *report.Report {
	shards := e.Cfg.Shards
	if shards < 2 {
		shards = 4
	}
	budget := e.Cfg.MaxResidentShards
	if budget < 1 {
		budget = 1
	}
	r := &report.Report{ID: "sharded", Title: fmt.Sprintf("Sharded fusion (%d item shards)", shards)}
	for _, d := range e.Domains() {
		spec := model.RangeShards(shards, d.Snap.NumItems())
		t := r.NewTable(d.Name,
			"Method", "Flat (ms)", "Sharded (ms)", "Budget M=1 (ms)",
			"Flat arena", "Peak budgeted", "Identical")
		for _, name := range []string{"Vote", "AccuPr", "AccuFormatAttr", "2-Estimates"} {
			m, _ := fusion.ByName(name)
			opts := d.FusionOpts(fusion.Options{})
			needs := m.Needs()
			needs.Parallelism = d.Par

			start := time.Now()
			flat := m.Run(fusion.Build(d.DS, d.Snap, d.Fused, needs), opts)
			flatDur := time.Since(start)

			start = time.Now()
			res, sp, err := fusion.FuseSharded(d.DS, d.Snap, d.Fused, spec, m, opts, 0)
			shardDur := time.Since(start)
			if err != nil {
				r.Note("%s/%s: sharded fuse failed: %v", d.Name, name, err)
				return r
			}
			flatBytes, _ := sp.ArenaBytes()

			start = time.Now()
			bres, bsp, err := fusion.FuseSharded(d.DS, d.Snap, d.Fused, spec, m, opts, budget)
			budgetDur := time.Since(start)
			if err != nil {
				r.Note("%s/%s: budgeted fuse failed: %v", d.Name, name, err)
				return r
			}

			identical := sameChosen(flat, res) && sameChosen(flat, bres) &&
				sameTrust(flat, res) && sameTrust(flat, bres)
			t.AddRow(name,
				fmt.Sprintf("%d", flatDur.Milliseconds()),
				fmt.Sprintf("%d", shardDur.Milliseconds()),
				fmt.Sprintf("%d", budgetDur.Milliseconds()),
				fmtBytes(flatBytes),
				fmtBytes(bsp.PeakResidentBytes()),
				fmt.Sprintf("%v", identical))
		}
	}
	r.Note("Sharded and budgeted answers/trust are verified identical to the flat engine;")
	r.Note("the budgeted column keeps at most %d of %d shard arenas resident, rebuilding the rest per pass.", budget, shards)
	r.Note("Sharded deltas: the incremental exhibit's streaming path composes with this engine via fusion.State.")
	return r
}

// ShardedIncremental composes the two scaling axes: the collection
// period consumed as day-over-day claim deltas (PR 2's streaming
// engine) routed onto item shards (this PR's engine). Every day's delta
// splits by item shard, each shard maintains its problem from its own
// dirty worklist, and one deterministic trust merge finishes the day;
// the exhibit verifies the stream stays identical to full flat
// re-fusion of every day. Re-derives (then restores) tolerances over
// the whole period, hence Exclusive — like the incremental exhibit.
func ShardedIncremental(e *Env) *report.Report {
	shards := e.Cfg.Shards
	if shards < 2 {
		shards = 4
	}
	r := &report.Report{ID: "sharded-incremental",
		Title: fmt.Sprintf("Sharded incremental fusion over the period (%d shards)", shards)}
	for _, d := range e.Domains() {
		if !shardedIncrementalDomain(r, d, shards) {
			return r
		}
	}
	r.Note("Each day's delta is split by item shard (model.Delta.Split) and advanced per shard")
	r.Note("before the single cross-shard trust merge; answers are verified identical to full re-fusion.")
	return r
}

// shardedIncrementalDomain runs the compose exhibit on one domain,
// always restoring the study snapshot's tolerances.
func shardedIncrementalDomain(r *report.Report, d *Domain, shards int) bool {
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
	spec := model.RangeShards(shards, snaps[0].NumItems())

	t := r.NewTable(fmt.Sprintf("%s (%d days)", d.Name, d.Days),
		"Method", "Full flat (ms)", "Sharded deltas (ms)", "Dirty items/day", "Identical")
	for _, name := range []string{"Vote", "AccuPr", "AccuFormatAttr"} {
		m, _ := fusion.ByName(name)
		opts := d.FusionOpts(fusion.Options{})
		needs := m.Needs()
		needs.Parallelism = d.Par

		start := time.Now()
		full := make([]*fusion.Result, d.Days)
		for day := range snaps {
			full[day] = m.Run(fusion.Build(d.DS, snaps[day], d.Fused, needs), opts)
		}
		fullDur := time.Since(start)

		start = time.Now()
		st, err := fusion.NewState(d.DS, snaps[0], d.Fused, spec, m, opts, 0)
		if err != nil {
			r.Note("%s/%s: sharded state failed: %v", d.Name, name, err)
			return false
		}
		identical := sameChosen(st.Result, full[0])
		var dirty, total int
		for day := 1; day < d.Days; day++ {
			delta, err := snaps[day-1].Diff(snaps[day])
			if err != nil {
				r.Note("%s/%s: diff failed: %v", d.Name, name, err)
				return false
			}
			next, stats, err := st.Advance(d.DS, delta, opts, fusion.IncrementalOptions{})
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

		days := float64(d.Days - 1)
		t.AddRow(name,
			fmt.Sprintf("%d", fullDur.Milliseconds()),
			fmt.Sprintf("%d", incDur.Milliseconds()),
			fmt.Sprintf("%.0f of %.0f (%.1f%%)", float64(dirty)/days, float64(total)/days,
				100*float64(dirty)/float64(max(total, 1))),
			fmt.Sprintf("%v", identical))
	}
	return true
}

// sameTrust compares the trust vectors of two runs exactly.
func sameTrust(a, b *fusion.Result) bool {
	if len(a.Trust) != len(b.Trust) {
		return false
	}
	for i := range a.Trust {
		if a.Trust[i] != b.Trust[i] {
			return false
		}
	}
	return true
}

// fmtBytes renders a byte count at KiB/MiB granularity.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
