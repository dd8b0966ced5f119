package fusion

import (
	"time"

	"truthdiscovery/internal/model"
)

// Run executes the method over the sharded problem. Every method runs
// its round program (dist.go) on one in-process executor spanning all
// shards; the known-groups filter and the Ensemble vote compose whole
// runs. The sixteen paper methods and the Section 5 extensions are all
// supported; results are bit-identical to m.Run on the equivalent flat
// problem.
func (sp *ShardedProblem) Run(m Method, opts Options) (*Result, error) {
	start := time.Now()
	var res *Result
	var err error
	ens, isEnsemble := m.(Ensemble)
	_, isCopy := m.(AccuCopy)
	switch {
	case isEnsemble:
		res, err = ensembleSharded(sp, ens, opts)
	case isCopy && opts.KnownGroups != nil:
		res, err = knownGroupsSharded(sp, opts)
	default:
		var e *DistExec
		if e, err = newExec(sp, m, opts, nil, nil); err == nil {
			res, err = e.run(nil, 0)
		}
	}
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// knownGroupsSharded mirrors runWithKnownGroups: every known copier (but
// each group's first member) is filtered out of every shard, the
// ACCUFORMAT program runs on the filtered shard set, and the choices are
// mapped back to the unfiltered bucket indexing shard by shard.
func knownGroupsSharded(sp *ShardedProblem, opts Options) (*Result, error) {
	ignore := make([]bool, len(sp.SourceIDs))
	indexOf := make(map[model.SourceID]int, len(sp.SourceIDs))
	for i, s := range sp.SourceIDs {
		indexOf[s] = i
	}
	for _, grp := range opts.KnownGroups {
		for gi, s := range grp {
			if gi == 0 {
				continue
			}
			if idx, ok := indexOf[s]; ok {
				ignore[idx] = true
			}
		}
	}
	fsp := sp.withFilter(ignore)
	e, err := newExec(fsp, AccuFormat{}, opts, nil, nil)
	if err != nil {
		return nil, err
	}
	res, err := e.run(nil, 0)
	if err != nil {
		return nil, err
	}
	res.Method = "AccuCopy"

	// Map choices back to the unfiltered bucket indexing, walking each
	// shard's filtered and unfiltered item lists in lockstep (filtering
	// preserves per-shard item order).
	chosen := make([]int32, sp.NumItems())
	for k := range sp.parts {
		p := sp.load(k)
		fp := fsp.load(k)
		fi := 0
		for i := range p.Items {
			g := sp.parts[k].gidx[i]
			chosen[g] = 0
			if fi < len(fp.Items) && fp.Items[fi].Item == p.Items[i].Item {
				rep := fp.Items[fi].Buckets[res.Chosen[fsp.parts[k].gidx[fi]]].Rep
				for b, bk := range p.Items[i].Buckets {
					if bk.Rep == rep {
						chosen[g] = int32(b)
						break
					}
				}
				fi++
			}
		}
		fsp.release(k)
		sp.release(k)
	}
	res.Chosen = chosen
	return res, nil
}

// withFilter derives the source-filtered shard set used by the
// known-groups path: same spec, snapshots and residency policy, with
// filterProblem applied to every (re)build.
func (sp *ShardedProblem) withFilter(ignore []bool) *ShardedProblem {
	out := &ShardedProblem{
		Spec:        sp.Spec,
		SourceIDs:   sp.SourceIDs,
		NumAttrs:    sp.NumAttrs,
		MaxResident: sp.MaxResident,
		ds:          sp.ds,
		needs:       sp.needs,
	}
	for k, pt := range sp.parts {
		p := filterProblem(Build(sp.ds, pt.snap, sp.SourceIDs, sp.needs), ignore)
		npt := &shardPart{snap: pt.snap, filter: ignore}
		recordPart(npt, p)
		npt.resident = sp.MaxResident <= 0 || k < sp.MaxResident
		if npt.resident {
			npt.p = p
		}
		out.parts = append(out.parts, npt)
	}
	out.finishAssembly()
	return out
}

// ensembleSharded mirrors Ensemble.Run: every member runs sharded and
// the per-item majority vote walks the shard set once.
func ensembleSharded(sp *ShardedProblem, e Ensemble, opts Options) (*Result, error) {
	var results []*Result
	rounds := 0
	for _, name := range e.members() {
		m, ok := ByName(name)
		if !ok {
			continue
		}
		r, err := sp.Run(m, opts)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
		rounds += r.Rounds
	}
	chosen := make([]int32, sp.NumItems())
	sp.sweep(opts.Parallelism, nil, func(k int, p *Problem, i, g int) {
		it := &p.Items[i]
		votes := make([]float64, len(it.Buckets))
		for _, r := range results {
			votes[r.Chosen[g]]++
		}
		// Fractional tie-break toward better-supported buckets.
		for b := range votes {
			votes[b] += 0.5 * float64(len(it.Buckets[b].Sources)) / float64(it.Providers+1)
		}
		chosen[g] = argmax32(votes)
	})
	// Report the mean member trust (where members expose compatible scales).
	var trust []float64
	for _, r := range results {
		if r.Trust == nil {
			continue
		}
		if trust == nil {
			trust = make([]float64, len(r.Trust))
		}
		for s := range r.Trust {
			trust[s] += r.Trust[s] / float64(len(results))
		}
	}
	return &Result{
		Method:    "Ensemble",
		Chosen:    chosen,
		Trust:     trust,
		Rounds:    rounds,
		Converged: true,
	}, nil
}
