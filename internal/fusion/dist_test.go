package fusion

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
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
		sp, err := BuildSharded(ds, snap, nil, spec, bounds[w], bounds[w+1], needs, 0)
		if err != nil {
			t.Fatalf("BuildSharded[%d,%d): %v", bounds[w], bounds[w+1], err)
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
		{"AccuCopy", methodNamed("AccuCopy"), Options{}, false},
		{"KnownGroups", methodNamed("AccuPr"), Options{KnownGroups: [][]model.SourceID{{0, 1}}}, false},
		{"AccuSimCat", methodNamed("AccuSimCat"), Options{}, false},
		{"Ensemble", Ensemble(), Options{}, false},
		{"AccuPr/InputTrust", methodNamed("AccuPr"), Options{InputTrust: input}, true},
		{"AccuPr/InitialTrust", methodNamed("AccuPr"), Options{InitialTrust: input}, true},
		{"AccuFormatAttr/InputAttrTrust", methodNamed("AccuFormatAttr"), Options{InputAttrTrust: attr}, true},
		{"AccuFormatAttr/InputTrust", methodNamed("AccuFormatAttr"), Options{InputTrust: input}, true},
		{"Hub/InputTrust", methodNamed("Hub"), Options{InputTrust: input}, true},
		{"3-Estimates/InputTrust", methodNamed("3-Estimates"), Options{InputTrust: input}, true},
		{"TruthFinder/InputTrust", methodNamed("TruthFinder"), Options{InputTrust: input}, true},
	} {
		if !tc.split {
			if _, err := DistRun(tc.m, tc.opts, nil, n, numAttrs, nil); !errors.Is(err, errNoSplit) {
				t.Fatalf("%s: DistRun error %v, want the capability error", tc.name, err)
			}
			sp, err := BuildSharded(ds, snap, nil, spec, 0, 4, methodNamed("AccuCopy").Needs(), 0)
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

// TestBuildShardedNeedsRange: the built shards are a non-empty run of
// the spec's, the contiguous item range a worker's fold link covers.
func TestBuildShardedNeedsRange(t *testing.T) {
	ds, snaps := incWorld(t, 5, 1)
	rs := model.RangeShards(2, snaps[0].NumItems())
	for _, r := range [][2]int{{1, 1}, {-1, 1}, {1, 3}} {
		if _, err := BuildSharded(ds, snaps[0], nil, rs, r[0], r[1], methodNamed("AccuPr").Needs(), 0); err == nil {
			t.Fatalf("BuildSharded accepted the shard range [%d, %d) of 2 shards", r[0], r[1])
		}
	}
}

// TestDistAdvanceChain: workers that advance their owned shards through
// ShardedProblem.Advance, one delta after another, stay bit-identical to
// flat Fuse of each day's snapshot — so a worker's maintained problems
// carry from one apply to the next as the engine's do.
func TestDistAdvanceChain(t *testing.T) {
	ds, snaps := incWorld(t, 7, 3)
	spec := model.RangeShards(4, snaps[0].NumItems())
	bounds := []int{0, 2, 4}
	splits := make([][]*model.Delta, len(snaps)-1)
	for d := range splits {
		dl, err := snaps[d].Diff(snaps[d+1])
		if err != nil {
			t.Fatal(err)
		}
		if splits[d], err = dl.Split(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []Method{methodNamed("Vote"), methodNamed("Cosine"), methodNamed("AccuPr"), methodNamed("AccuFormatAttr")} {
		_, execs := distWorld(t, ds, snaps[0], m, Options{}, spec, bounds)
		sps := make([]*ShardedProblem, len(execs))
		for w, e := range execs {
			sps[w] = e.Problem()
		}
		for d, split := range splits {
			ctx := fmt.Sprintf("%s/day%d", m.Name(), d+1)
			cps := make([]int, len(sps[0].ClaimsPerSource))
			for w, sp := range sps {
				next, rb, err := sp.Advance(ds, split[bounds[w]:bounds[w+1]], 0, false)
				if err != nil {
					t.Fatalf("%s: worker %d: %v", ctx, w, err)
				}
				if rb.Dirty == 0 {
					t.Fatalf("%s: worker %d rebuilt nothing", ctx, w)
				}
				sps[w] = &next
				for s, c := range next.ClaimsPerSource {
					cps[s] += c
				}
			}
			// Scores are per-run state: each run gets fresh executors.
			peers := make([]DistPeer, len(sps))
			nexecs := make([]*DistExec, len(sps))
			for w, sp := range sps {
				e, err := NewDistExec(sp, m, Options{}, cps)
				if err != nil {
					t.Fatal(err)
				}
				peers[w], nexecs[w] = e, e
			}
			dr, err := DistRun(m, Options{}, peers, len(DefaultRoster(ds)), len(ds.Attrs), cps)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			flat := m.Run(Build(ds, snaps[d+1], nil, m.Needs()), Options{})
			sameShardedResult(t, ctx, flat, assembleDist(dr, nexecs))
		}
	}
}

// TestShardedAdvanceRebuildsOneItem: on a worker's owned set of two of
// four shards, a one-item delta rebuilds that item alone. Every other
// item of the new generation shares its bucket storage with the
// previous generation, every problem equals a cold Build, and the
// receiver keeps its snapshots and problems.
func TestShardedAdvanceRebuildsOneItem(t *testing.T) {
	ds, snaps := incWorld(t, 7, 1)
	day0 := snaps[0]
	spec := model.RangeShards(4, day0.NumItems())
	const lo, hi = 1, 3
	needs := methodNamed("AccuFormatAttr").Needs()
	sp, err := BuildSharded(ds, day0, nil, spec, lo, hi, needs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reprice the first claim of the first claimed item of shard 2.
	var item model.ItemID = -1
	var claims []model.Claim
	for _, c := range day0.Claims {
		if item < 0 && spec.ShardOf(c.Item) == 2 {
			item = c.Item
			c.Val = value.Num(c.Val.Num + 1000)
		}
		claims = append(claims, c)
	}
	day1 := model.NewSnapshot(day0.Day+1, "", day0.NumItems(), claims)
	dl, err := day0.Diff(day1)
	if err != nil {
		t.Fatal(err)
	}
	split, err := dl.Split(spec)
	if err != nil {
		t.Fatal(err)
	}
	before := []*shardPart{sp.parts[0].carryForward(), sp.parts[1].carryForward()}

	next, rb, err := sp.Advance(ds, split[lo:hi], 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Dirty != 1 || rb.Shards != 1 || rb.Items[0] != nil || len(rb.Items[1]) != 1 {
		t.Fatalf("rebuilt %v (%d items over %d shards), want one item of shard 2", rb.Items, rb.Dirty, rb.Shards)
	}
	for k, pt := range next.parts {
		prev := before[k].p
		if got := sp.parts[k]; got.snap != before[k].snap || got.p != prev {
			t.Fatalf("shard %d: the receiver changed", lo+k)
		}
		if k == 0 {
			if pt.p != prev || pt.snap != before[k].snap {
				t.Fatalf("untouched shard %d did not carry its problem forward", lo+k)
			}
			continue
		}
		shSnaps, err := day1.Shard(spec)
		if err != nil {
			t.Fatal(err)
		}
		sameProblem(t, fmt.Sprintf("shard %d", lo+k), pt.p, Build(ds, shSnaps[lo+k], nil, needs))
		for i := range pt.p.Items {
			it := &pt.p.Items[i]
			rebuilt := i == rb.Items[k][0]
			if rebuilt != (it.Item == item) {
				t.Fatalf("shard %d rebuilt item %d, want item %d", lo+k, pt.p.Items[rb.Items[k][0]].Item, item)
			}
			shared := &it.Buckets[0] == &prev.Items[i].Buckets[0]
			if shared == rebuilt {
				t.Fatalf("shard %d item %d (rebuilt %v) shares bucket storage: %v", lo+k, it.Item, rebuilt, shared)
			}
			want := i
			if rebuilt {
				want = -1
			}
			if rb.PrevIdx[k][i] != want {
				t.Fatalf("shard %d item %d aligned to %d, want %d", lo+k, i, rb.PrevIdx[k][i], want)
			}
		}
	}
}

// TestShardedAdvanceAllOrNothing: when one shard's delta fails, Advance
// returns an error and no generation, the receiver keeps its snapshots
// and assembly, and the same valid deltas still apply.
func TestShardedAdvanceAllOrNothing(t *testing.T) {
	ds, snaps := incWorld(t, 7, 2)
	day0, day1 := snaps[0], snaps[1]
	spec := model.RangeShards(2, day0.NumItems())
	dl, err := day0.Diff(day1)
	if err != nil {
		t.Fatal(err)
	}
	split, err := dl.Split(spec)
	if err != nil {
		t.Fatal(err)
	}
	if split[0].Empty() {
		t.Fatal("no churn on shard 0")
	}
	sp, err := BuildSharded(ds, day0, nil, spec, 0, 2, methodNamed("AccuPr").Needs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	snapsBefore := []*model.Snapshot{sp.parts[0].snap, sp.parts[1].snap}
	cpsBefore := append([]int(nil), sp.ClaimsPerSource...)

	// Shard 1's delta retracts a claim its base does not hold.
	item := model.ItemID(day0.NumItems() - 1)
	bad := &model.Delta{NumItems: day0.NumItems(), Retracted: []model.Claim{
		{Source: 0, Item: item, Val: value.Num(-1), CopiedFrom: model.NoSource}}}
	if _, _, err := sp.Advance(ds, []*model.Delta{split[0], bad}, 0, false); err == nil {
		t.Fatal("a failing shard delta was accepted")
	}
	for k, s := range snapsBefore {
		if sp.parts[k].snap != s {
			t.Fatalf("shard %d advanced although shard 1's delta failed", k)
		}
	}
	if !reflect.DeepEqual(sp.ClaimsPerSource, cpsBefore) {
		t.Fatal("the failed advance changed the assembly")
	}
	if _, _, err := sp.Advance(ds, []*model.Delta{split[0], {NumItems: day0.NumItems()}}, 0, false); err != nil {
		t.Fatalf("shard 0's delta no longer applies: %v", err)
	}
}
