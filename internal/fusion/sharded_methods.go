package fusion

import (
	"time"

	"truthdiscovery/internal/model"
)

// Run executes the method over the sharded problem. Every method runs
// its round program (dist.go) on one in-process executor spanning all
// shards; the known-groups filter and the Ensemble vote compose whole
// runs. The sixteen paper methods and the Section 5 extensions are all
// supported, and the result is the same at any shard count and memory
// budget.
func (sp *ShardedProblem) Run(m Method, opts Options) (*Result, error) {
	start := time.Now()
	var res *Result
	var err error
	switch {
	case m.kind == dkEnsemble:
		res, err = ensembleSharded(sp, m.members, opts)
	case m.cfg.copies && opts.KnownGroups != nil:
		res, err = knownGroupsSharded(sp, m, opts)
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

// onePart wraps p as a one-part ShardedProblem that aliases it: the part
// is p itself, pinned resident, and every per-part structure shares p's
// own, so nothing is copied. The wrap has no snapshot or dataset: it
// runs rounds but is never advanced or rebuilt. Every Method.Run pays
// for the wrap, so the wrapper, its part and the part list share one
// allocation.
func onePart(p *Problem) *ShardedProblem {
	w := &struct {
		sp    ShardedProblem
		pt    shardPart
		parts [1]*shardPart
	}{}
	w.pt = shardPart{resident: true, p: p}
	recordPart(&w.pt, p)
	w.parts[0] = &w.pt
	w.sp = ShardedProblem{
		Spec:      model.ShardSpec{Shards: 1},
		SourceIDs: p.SourceIDs,
		NumAttrs:  p.NumAttrs,
		parts:     w.parts[:],
	}
	w.sp.finishAssembly()
	return &w.sp
}

// knownGroupsSharded is ACCUCOPY (m) with known copying groups: every
// known copier (but each group's first member) is filtered out of every
// shard, m's program without its detect step — ACCUFORMAT's — runs on the
// filtered shard set, and the choices are mapped back to the unfiltered
// bucket indexing shard by shard.
func knownGroupsSharded(sp *ShardedProblem, m Method, opts Options) (*Result, error) {
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
	m.cfg.copies = false
	e, err := newExec(fsp, m, opts, nil, nil)
	if err != nil {
		return nil, err
	}
	res, err := e.run(nil, 0)
	if err != nil {
		return nil, err
	}

	// Map choices back to the unfiltered bucket indexing, walking each
	// shard's filtered and unfiltered item lists in lockstep (filtering
	// preserves per-shard item order).
	chosen := make([]int32, sp.NumItems())
	for k := range sp.parts {
		p := sp.load(k)
		fp := fsp.load(k)
		fi := 0
		for i := range p.Items {
			g := sp.parts[k].base + i
			if fi < len(fp.Items) && fp.Items[fi].Item == p.Items[i].Item {
				rep := fp.Items[fi].Buckets[res.Chosen[fsp.parts[k].base+fi]].Rep
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
// filterProblem applied to every part's problem — the resident one in
// place, an evicted one rebuilt through load — and to every later
// rebuild.
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
		p := filterProblem(sp.load(k), ignore)
		sp.release(k)
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

// ensembleSharded is the Ensemble vote: every member runs on the shard
// set, and the per-item majority vote walks it once.
func ensembleSharded(sp *ShardedProblem, members []string, opts Options) (*Result, error) {
	var results []*Result
	rounds := 0
	for _, name := range members {
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
