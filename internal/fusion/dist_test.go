package fusion

import (
	"errors"
	"fmt"
	"testing"

	"truthdiscovery/internal/model"
)

// The distributed engine promises the same contract as the sharded one —
// results bit-identical to flat Fuse — with the shard set split across
// workers that communicate only through the DistPeer protocol. These
// loopback tests drive DistRun over in-process DistExec peers (no HTTP)
// for every supported method and worker split; internal/dist repeats the
// contract over the JSON-RPC transport, and the repo-root suite repeats
// it through the scatter-gather router under -race.

// distWorld builds loopback workers over contiguous owned ranges of the
// spec and returns the peers with their executors (peer i owns
// bounds[i]..bounds[i+1]).
func distWorld(t *testing.T, ds *model.Dataset, snap *model.Snapshot, m Method,
	opts Options, spec model.ShardSpec, bounds []int) ([]DistPeer, []*DistExec) {
	t.Helper()
	needs := m.Needs()
	needs.Parallelism = opts.Parallelism
	var sps []*ShardedProblem
	cps := make([]int, 0)
	for w := 0; w+1 < len(bounds); w++ {
		sp, err := BuildShardedOwned(ds, snap, nil, spec, needs, bounds[w], bounds[w+1])
		if err != nil {
			t.Fatalf("BuildShardedOwned[%d,%d): %v", bounds[w], bounds[w+1], err)
		}
		if len(cps) == 0 {
			cps = make([]int, len(sp.ClaimsPerSource))
		}
		for s, c := range sp.ClaimsPerSource {
			cps[s] += c
		}
		sps = append(sps, sp)
	}
	peers := make([]DistPeer, len(sps))
	execs := make([]*DistExec, len(sps))
	for w, sp := range sps {
		e, err := NewDistExec(sp, m, opts, cps)
		if err != nil {
			t.Fatalf("NewDistExec: %v", err)
		}
		peers[w], execs[w] = e, e
	}
	return peers, execs
}

// assembleDist concatenates the workers' local results under the
// coordinator's trust state into one global Result, in worker order —
// which is global item order, since workers own contiguous shard ranges.
func assembleDist(dr *DistResult, execs []*DistExec) *Result {
	out := &Result{
		Method:    dr.Method,
		Trust:     dr.Trust,
		AttrTrust: dr.AttrTrust,
		Rounds:    dr.Rounds,
		Converged: dr.Converged,
	}
	for _, e := range execs {
		lr := e.LocalResult(dr.Trust, dr.AttrTrust, dr.Rounds, dr.Converged)
		out.Chosen = append(out.Chosen, lr.Chosen...)
		if lr.Posteriors != nil {
			out.Posteriors = append(out.Posteriors, lr.Posteriors...)
		}
	}
	return out
}

// distSplits returns the worker splits under test over a 4-shard range
// spec: two even workers, three uneven ones, and the degenerate single
// worker (which must also be exact — it exercises the full protocol).
func distSplits() [][]int {
	return [][]int{
		{0, 4},
		{0, 2, 4},
		{0, 2, 3, 4},
	}
}

// TestDistRunLoopbackBitIdentical: every supported method at every worker
// split matches flat Fuse bit for bit; methods without a distributed
// runner fail both NewDistExec and DistRun with a clear error.
func TestDistRunLoopbackBitIdentical(t *testing.T) {
	ds, snaps := incWorld(t, 5, 1)
	snap := snaps[0]
	spec := model.RangeShards(4, snap.NumItems())
	methods := append(Methods(), ExtensionMethods()...)
	for _, m := range methods {
		if err := DistCheck(m, Options{}); err != nil {
			if _, err := DistRun(m, Options{}, []DistPeer{}, len(DefaultRoster(ds)), len(ds.Attrs), nil); err == nil {
				t.Fatalf("%s: DistRun accepted a method DistCheck rejects", m.Name())
			}
			continue
		}
		flat := m.Run(Build(ds, snap, nil, m.Needs()), Options{})
		for _, par := range []int{1, 4} {
			opts := Options{Parallelism: par}
			for _, bounds := range distSplits() {
				ctx := fmt.Sprintf("%s/workers%d/par%d", m.Name(), len(bounds)-1, par)
				peers, execs := distWorld(t, ds, snap, m, opts, spec, bounds)
				dr, err := DistRun(m, opts, peers, len(DefaultRoster(ds)), len(ds.Attrs), execs[0].cps)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				sameShardedResult(t, ctx, flat, assembleDist(dr, execs))
			}
		}
	}
}

// TestDistRunRejectsOfflineOptions is the capability table of split
// runs. AccuCopy, KnownGroups, AccuSimCat and Ensemble need every item in
// one process: DistRun and NewDistExec refuse them with the one
// DistCheck error. Supplied trust lives in the coordinator's loop — the
// workers below are built without it — and matches flat Run at one to
// three loopback workers.
func TestDistRunRejectsOfflineOptions(t *testing.T) {
	ds, snaps := incWorld(t, 5, 1)
	snap := snaps[0]
	n, numAttrs := len(DefaultRoster(ds)), len(ds.Attrs)
	spec := model.RangeShards(4, snap.NumItems())
	input := make([]float64, n)
	attr := make([][]float64, n)
	for s := range input {
		input[s] = 0.3 + 0.6*float64(s%7)/7
		attr[s] = make([]float64, numAttrs)
		for a := range attr[s] {
			attr[s][a] = 0.2 + 0.7*float64((s+a)%5)/5
		}
	}
	for _, tc := range []struct {
		name  string
		m     Method
		opts  Options
		split bool
	}{
		{"AccuCopy", AccuCopy{}, Options{}, false},
		{"KnownGroups", AccuPr{}, Options{KnownGroups: [][]model.SourceID{{0, 1}}}, false},
		{"AccuSimCat", AccuSimCat{}, Options{}, false},
		{"Ensemble", Ensemble{}, Options{}, false},
		{"AccuPr/InputTrust", AccuPr{}, Options{InputTrust: input}, true},
		{"AccuPr/InitialTrust", AccuPr{}, Options{InitialTrust: input}, true},
		{"AccuFormatAttr/InputAttrTrust", AccuFormatAttr{}, Options{InputAttrTrust: attr}, true},
		{"AccuFormatAttr/InputTrust", AccuFormatAttr{}, Options{InputTrust: input}, true},
		{"Hub/InputTrust", Hub{}, Options{InputTrust: input}, true},
		{"3-Estimates/InputTrust", ThreeEstimates{}, Options{InputTrust: input}, true},
		{"TruthFinder/InputTrust", TruthFinder{}, Options{InputTrust: input}, true},
	} {
		if !tc.split {
			if _, err := DistRun(tc.m, tc.opts, nil, n, numAttrs, nil); !errors.Is(err, errNoSplit) {
				t.Fatalf("%s: DistRun error %v, want the capability error", tc.name, err)
			}
			sp, err := BuildShardedOwned(ds, snap, nil, spec, AccuCopy{}.Needs(), 0, 4)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewDistExec(sp, tc.m, tc.opts, nil); !errors.Is(err, errNoSplit) {
				t.Fatalf("%s: NewDistExec error %v, want the capability error", tc.name, err)
			}
			continue
		}
		flat := tc.m.Run(Build(ds, snap, nil, tc.m.Needs()), tc.opts)
		for _, bounds := range distSplits() {
			peers, execs := distWorld(t, ds, snap, tc.m, Options{}, spec, bounds)
			dr, err := DistRun(tc.m, tc.opts, peers, n, numAttrs, execs[0].cps)
			if err != nil {
				t.Fatalf("%s/workers%d: %v", tc.name, len(bounds)-1, err)
			}
			sameShardedResult(t, fmt.Sprintf("%s/workers%d", tc.name, len(bounds)-1), flat, assembleDist(dr, execs))
		}
	}
}

// TestBuildShardedOwnedNeedsRange: hash sharding interleaves items across
// shards, which breaks the worker-order == item-order invariant.
func TestBuildShardedOwnedNeedsRange(t *testing.T) {
	ds, snaps := incWorld(t, 5, 1)
	spec := model.HashShards(2, snaps[0].NumItems())
	if _, err := BuildShardedOwned(ds, snaps[0], nil, spec, AccuPr{}.Needs(), 0, 2); err == nil {
		t.Fatal("BuildShardedOwned accepted hash sharding")
	}
	rs := model.RangeShards(2, snaps[0].NumItems())
	if _, err := BuildShardedOwned(ds, snaps[0], nil, rs, AccuPr{}.Needs(), 1, 1); err == nil {
		t.Fatal("BuildShardedOwned accepted an empty owned range")
	}
}

// TestDistApplyShardDeltas: after a delta advance on every worker, a
// fresh distributed run equals flat Fuse of the advanced snapshot — the
// distributed ingest path's contract.
func TestDistApplyShardDeltas(t *testing.T) {
	ds, snaps := incWorld(t, 7, 2)
	day0, day1 := snaps[0], snaps[1]
	spec := model.RangeShards(4, day0.NumItems())
	dl, err := day0.Diff(day1)
	if err != nil {
		t.Fatal(err)
	}
	split, err := dl.Split(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{Vote{}, Cosine{}, AccuPr{}, AccuFormatAttr{}} {
		flat := m.Run(Build(ds, day1, nil, m.Needs()), Options{})
		bounds := []int{0, 2, 4}
		_, execs := distWorld(t, ds, day0, m, Options{}, spec, bounds)
		// Advance each worker's owned shards with its slice of the split,
		// then rebuild the executors (scores are per-run state) and re-run.
		var peers []DistPeer
		var nexecs []*DistExec
		cps := make([]int, len(execs[0].cps))
		var sps []*ShardedProblem
		for w, e := range execs {
			sp := e.Problem()
			if err := sp.ApplyShardDeltas(split[bounds[w]:bounds[w+1]]); err != nil {
				t.Fatalf("%s: ApplyShardDeltas: %v", m.Name(), err)
			}
			for s, c := range sp.ClaimsPerSource {
				cps[s] += c
			}
			sps = append(sps, sp)
		}
		for _, sp := range sps {
			e, err := NewDistExec(sp, m, Options{}, cps)
			if err != nil {
				t.Fatal(err)
			}
			peers = append(peers, e)
			nexecs = append(nexecs, e)
		}
		dr, err := DistRun(m, Options{}, peers, len(DefaultRoster(ds)), len(ds.Attrs), cps)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		sameShardedResult(t, m.Name()+"/after-delta", flat, assembleDist(dr, nexecs))
	}
}
