package fusion

import (
	"fmt"
	"unsafe"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/parallel"
)

// The sharded fusion engine: one Problem per item shard plus one
// deterministic cross-shard trust merge.
//
// Truth-discovery methods are structurally shardable: the per-item
// vote/posterior phase of every method touches only item-local state,
// while trust estimation is a per-source reduction over the items. The
// engine exploits exactly that split. Each shard holds the tolerance-
// bucketed problem of its own items (built from the shard's snapshot,
// sharing the full dense source roster so source indices are global),
// phases run shard-by-shard — concurrently when every shard's arena is
// resident, or sequentially under a memory budget that keeps at most
// MaxResident arenas alive — and the per-source trust reduction folds
// every shard's items in ascending global item order, which is the exact
// floating-point association the flat engine uses. The methods' rounds
// are the round protocol's (dist.go), run on one in-process executor
// over this shard set. The result is bit-identical to the unsharded path
// at any shard count: same answers, same trust vectors, same posteriors,
// same round counts (asserted by sharded_test.go for all sixteen
// methods).
//
// The memory-budget mode requires range sharding: there, shard order IS
// global item order, so a shard can be loaded, phased, folded and
// released before the next shard is touched, and the fold order is
// unchanged. Hash sharding interleaves items across shards, which the
// resident mode handles with a precomputed merge plan.

// partRef locates one item: the shard that owns it and its index there.
// The merge plan is a []partRef in ascending global ItemID order.
type partRef struct {
	part int32
	idx  int32
}

// shardPart is one shard's slot in a ShardedProblem: the shard snapshot,
// the (possibly evicted) problem arena, and the stable per-shard
// metadata the engine needs even while the arena is not resident. Builds
// are deterministic — Build(ds, snap, roster, needs) always produces the
// same problem — so the metadata recorded at assembly time stays valid
// across evict/rebuild cycles.
type shardPart struct {
	snap *model.Snapshot
	p    *Problem // nil while evicted (memory-budget mode)
	// resident pins the arena across rounds; non-resident parts are
	// rebuilt on load and dropped on release.
	resident bool
	// filter, when set, is the source-ignore vector applied to every
	// (re)build — the ACCUCOPY known-groups path.
	filter []bool

	// Stable metadata (identical on every rebuild). localCPS and the
	// local category tables are recorded from the built problem so
	// assembly — and every later re-assembly after an Advance — never
	// rescans the shard's claims; untouched shards carry their metadata
	// forward unchanged.
	items         []model.ItemID // the shard's item list, ascending
	off           []int32        // bucket offsets (len(items)+1)
	gidx          []int32        // local item index -> global item index
	cats          []int32        // per-item category, global numbering
	localCPS      []int          // the shard's own per-source claim counts
	localCats     []int32        // per-item category, shard-local numbering
	localCatNames []string       // shard-local category names
	maxBuckets    int
	arenaBytes    int64
}

// carryForward returns a copy of the part for the next generation of a
// ShardedProblem: the immutable metadata (and the resident arena) is
// shared, while the global structures finishAssembly rewrites (gidx,
// cats) get their own slots so the previous generation stays valid.
func (pt *shardPart) carryForward() *shardPart {
	npt := *pt
	npt.gidx, npt.cats = nil, nil
	return &npt
}

// numBuckets returns the shard's total bucket count.
func (pt *shardPart) numBuckets() int { return int(pt.off[len(pt.items)]) }

// ShardedProblem is the fusion input partitioned by item shard: N
// per-shard Problems sharing one global dense source roster, plus the
// merge plan and the global per-source claim counts the cross-shard
// reductions read.
type ShardedProblem struct {
	Spec model.ShardSpec
	// SourceIDs is the shared roster: every part's dense source index s
	// names SourceIDs[s], so per-source accumulators are global.
	SourceIDs []model.SourceID
	// NumAttrs mirrors Problem.NumAttrs (per-attribute trust key space).
	NumAttrs int
	// ClaimsPerSource is the global per-source claim count (the sum of
	// the shards' local counts — exact, integer), which the web-link
	// methods read in place of a flat problem's local counts.
	ClaimsPerSource []int
	// CatNames is the global category table, numbered by first
	// appearance in global item order exactly as a flat Build would.
	CatNames []string

	// MaxResident caps how many shard arenas stay resident (0 = all).
	MaxResident int

	parts []*shardPart
	plan  []partRef

	ds    *model.Dataset
	needs BuildOptions

	// residentBytes / peakBytes track arena residency for the memory
	// exhibits (mutated only by load/release on the engine's own
	// shard-sequential passes).
	residentBytes int64
	peakBytes     int64
	// rebuilds counts evicted arenas rebuilt by load (budget mode).
	rebuilds int
}

// NumItems returns the total claimed-item count across all shards (the
// length of every global result vector).
func (sp *ShardedProblem) NumItems() int { return len(sp.plan) }

// NumShards returns the shard count.
func (sp *ShardedProblem) NumShards() int { return len(sp.parts) }

// budget reports whether the engine is in memory-budget mode (some
// shards non-resident).
func (sp *ShardedProblem) budget() bool {
	return sp.MaxResident > 0 && sp.MaxResident < len(sp.parts)
}

// PeakResidentBytes returns the largest total of simultaneously resident
// shard-arena bytes observed so far — the memory ceiling the budget mode
// exists to cap.
func (sp *ShardedProblem) PeakResidentBytes() int64 { return sp.peakBytes }

// ArenaBytes returns the summed arena footprint of all shards (the flat
// engine's ceiling) and the largest single shard's footprint (the budget
// engine's per-shard floor).
func (sp *ShardedProblem) ArenaBytes() (total, maxShard int64) {
	for _, pt := range sp.parts {
		total += pt.arenaBytes
		if pt.arenaBytes > maxShard {
			maxShard = pt.arenaBytes
		}
	}
	return total, maxShard
}

// BuildSharded partitions the snapshot with the spec and builds one
// problem per shard, keeping only claims by the given sources (nil =
// all, as Build). maxResident > 0 bounds how many shard arenas stay
// resident between passes; that memory-budget mode requires range
// sharding, where shard order equals global item order and the
// fixed-order trust merge can run shard by shard.
func BuildSharded(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID,
	spec model.ShardSpec, needs BuildOptions, maxResident int) (*ShardedProblem, error) {

	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if maxResident > 0 && maxResident < spec.Shards && spec.Kind != model.ShardByRange {
		return nil, fmt.Errorf("fusion: the shard memory budget needs range sharding (shard order must equal item order), got %v", spec.Kind)
	}
	if sources == nil {
		sources = DefaultRoster(ds)
	}
	snaps, err := snap.Shard(spec)
	if err != nil {
		return nil, err
	}
	sp := &ShardedProblem{
		Spec:        spec,
		SourceIDs:   sources,
		NumAttrs:    len(ds.Attrs),
		MaxResident: maxResident,
		ds:          ds,
		needs:       needs,
	}
	for k, shSnap := range snaps {
		p := Build(ds, shSnap, sources, needs)
		pt := &shardPart{snap: shSnap}
		recordPart(pt, p)
		pt.resident = maxResident <= 0 || k < maxResident
		if pt.resident {
			pt.p = p
		}
		sp.parts = append(sp.parts, pt)
	}
	sp.finishAssembly()
	return sp, nil
}

// recordPart captures the stable per-shard metadata from a freshly
// built problem.
func recordPart(pt *shardPart, p *Problem) {
	pt.items = make([]model.ItemID, len(p.Items))
	for i := range p.Items {
		pt.items[i] = p.Items[i].Item
	}
	pt.off = append([]int32(nil), p.BucketOff...)
	pt.maxBuckets = p.MaxBuckets()
	pt.arenaBytes = problemArenaBytes(p)
	pt.localCPS = p.ClaimsPerSource
	pt.localCats, pt.localCatNames = p.Cats, p.CatNames
}

// finishAssembly derives the cross-shard structures from the parts'
// recorded metadata: the merge plan, the local->global item mapping, the
// global claim counts and the globally renumbered category table. It
// reads only the recorded metadata — no shard arena and no claim scan.
func (sp *ShardedProblem) finishAssembly() {
	total := 0
	for _, pt := range sp.parts {
		total += len(pt.items)
	}
	// N-way merge of the per-shard (ascending) item lists into global
	// ItemID order. Shards partition the items, so IDs never tie.
	plan := make([]partRef, 0, total)
	heads := make([]int, len(sp.parts))
	for {
		best := -1
		for k, pt := range sp.parts {
			if heads[k] >= len(pt.items) {
				continue
			}
			if best < 0 || pt.items[heads[k]] < sp.parts[best].items[heads[best]] {
				best = k
			}
		}
		if best < 0 {
			break
		}
		plan = append(plan, partRef{part: int32(best), idx: int32(heads[best])})
		heads[best]++
	}
	sp.plan = plan

	for _, pt := range sp.parts {
		pt.gidx = make([]int32, len(pt.items))
		pt.cats = make([]int32, len(pt.items))
	}
	for g, ref := range plan {
		sp.parts[ref.part].gidx[ref.idx] = int32(g)
	}

	// Global claim counts: exact integer sums of the recorded local
	// counts.
	sp.ClaimsPerSource = make([]int, len(sp.SourceIDs))
	for _, pt := range sp.parts {
		for s, c := range pt.localCPS {
			sp.ClaimsPerSource[s] += c
		}
	}

	// Category table: number categories by first appearance in global
	// item order, exactly as assignCats does on a flat problem. Parts
	// without category data (filterProblem output carries none, matching
	// the flat known-groups path) leave the table empty.
	haveCats := true
	for _, pt := range sp.parts {
		if len(pt.localCats) != len(pt.items) {
			haveCats = false
		}
	}
	if haveCats {
		catIndex := make(map[string]int32)
		sp.CatNames = nil
		for _, ref := range plan {
			pt := sp.parts[ref.part]
			name := pt.localCatNames[pt.localCats[ref.idx]]
			cat, ok := catIndex[name]
			if !ok {
				cat = int32(len(sp.CatNames))
				catIndex[name] = cat
				sp.CatNames = append(sp.CatNames, name)
			}
			pt.cats[ref.idx] = cat
		}
	}

	sp.residentBytes = 0
	for _, pt := range sp.parts {
		if pt.p != nil {
			sp.residentBytes += pt.arenaBytes
		}
	}
	if sp.residentBytes > sp.peakBytes {
		sp.peakBytes = sp.residentBytes
	}
}

// load returns shard k's problem, rebuilding it if evicted. Rebuilds are
// bit-identical to the original build (Build is deterministic), so the
// recorded metadata stays valid.
func (sp *ShardedProblem) load(k int) *Problem {
	pt := sp.parts[k]
	if pt.p == nil {
		p := Build(sp.ds, pt.snap, sp.SourceIDs, sp.needs)
		if pt.filter != nil {
			p = filterProblem(p, pt.filter)
		}
		pt.p = p
		sp.rebuilds++
		sp.residentBytes += pt.arenaBytes
		if sp.residentBytes > sp.peakBytes {
			sp.peakBytes = sp.residentBytes
		}
	}
	return pt.p
}

// release drops shard k's arena unless the shard is pinned resident.
func (sp *ShardedProblem) release(k int) {
	pt := sp.parts[k]
	if !pt.resident && pt.p != nil {
		pt.p = nil
		sp.residentBytes -= pt.arenaBytes
	}
}

// sweep runs one shard-ordered pass: phase (optional) executes each
// shard's per-item parallel work, then fold (optional) consumes items in
// global item order, receiving (shard, problem, local index, global
// index). Each shard's arena is loaded at most once per sweep.
//
// Resident mode: phases fan out across shards (shard-level concurrency
// when there are at least as many shards as workers, shard-sequential
// with the full inner parallelism otherwise — both bit-identical, since
// phases write only disjoint per-shard state), then folds walk the merge
// plan on the calling goroutine. Budget mode: shards are loaded, phased,
// folded and released strictly in shard order, which equals global item
// order because budget mode requires range sharding. Either way the fold
// visits items in exactly the order the flat engine's trust loops do.
func (sp *ShardedProblem) sweep(parallelism int,
	phase func(k int, p *Problem, par int),
	fold func(k int, p *Problem, i, g int)) {

	if !sp.budget() {
		if phase != nil {
			workers := parallel.Workers(parallelism)
			if workers > 1 && len(sp.parts) >= workers {
				tasks := make([]func(), len(sp.parts))
				for k := range sp.parts {
					k := k
					tasks[k] = func() { phase(k, sp.load(k), 1) }
				}
				parallel.Run(parallelism, tasks)
			} else {
				for k := range sp.parts {
					phase(k, sp.load(k), parallelism)
				}
			}
		}
		if fold != nil {
			for g, ref := range sp.plan {
				fold(int(ref.part), sp.load(int(ref.part)), int(ref.idx), g)
			}
		}
		return
	}
	for k := range sp.parts {
		p := sp.load(k)
		if phase != nil {
			phase(k, p, parallelism)
		}
		if fold != nil {
			gi := sp.parts[k].gidx
			for i := range p.Items {
				fold(k, p, i, int(gi[i]))
			}
		}
		sp.release(k)
	}
}

// walk visits every item in global item order without touching any
// shard arena — for consumers that only need the persistent flat
// vectors (score spaces, chosen, posteriors).
func (sp *ShardedProblem) walk(f func(k, i, g int)) {
	for g, ref := range sp.plan {
		f(int(ref.part), int(ref.idx), g)
	}
}

// ForEachItem visits every item of the sharded problem in global item
// order, loading shard arenas as needed (one at a time under the memory
// budget). The callback must not retain the item pointer past the call
// when running under a budget — the arena may be released afterwards.
func (sp *ShardedProblem) ForEachItem(f func(g int, it *ProblemItem)) {
	sp.sweep(1, nil, func(k int, p *Problem, i, g int) {
		f(g, &p.Items[i])
	})
}

// newSpaces allocates one persistent flat per-(item, bucket) vector per
// shard, laid out by the shard's stable bucket offsets. Spaces survive
// arena evictions — they are the cross-round state of the iterations.
func (sp *ShardedProblem) newSpaces() []voteSpace {
	out := make([]voteSpace, len(sp.parts))
	for k, pt := range sp.parts {
		out[k] = voteSpace{flat: make([]float64, pt.numBuckets()), off: pt.off}
	}
	return out
}

// newPartTemps allocates one per-worker temporary row set per shard,
// wide enough for any parallelism the sweeps may use.
func (sp *ShardedProblem) newPartTemps(parallelism int) []workerRows {
	out := make([]workerRows, len(sp.parts))
	for k, pt := range sp.parts {
		out[k] = newWorkerRowsSize(pt.maxBuckets, parallelism)
	}
	return out
}

// innerWorkers clamps a sweep-supplied parallelism to the worker rows
// allocated for the shard, so a phase can never index past its temp set.
func innerWorkers(par int, temps workerRows) int {
	w := parallel.Workers(par)
	if w > temps.workers {
		w = temps.workers
	}
	return w
}

// chooseSharded picks every item's winning bucket from the persistent
// score spaces (no arena loads).
func chooseSharded(sp *ShardedProblem, spaces []voteSpace) []int32 {
	chosen := make([]int32, len(sp.plan))
	sp.walk(func(k, i, g int) {
		chosen[g] = argmax32(spaces[k].row(i))
	})
	return chosen
}

// problemArenaBytes estimates the resident footprint of one problem's
// arenas: the item table, the bucket and dense-source arenas, and the
// similarity/format structures. Used for the residency accounting the
// memory exhibits report.
func problemArenaBytes(p *Problem) int64 {
	b := int64(len(p.Items)) * int64(unsafe.Sizeof(ProblemItem{}))
	b += int64(p.NumBuckets()) * int64(unsafe.Sizeof(Bucket{}))
	srcs := 0
	for i := range p.Items {
		srcs += p.Items[i].Providers
	}
	b += int64(srcs) * 4 // dense source indices
	for i := range p.Sim {
		b += int64(len(p.Sim[i])) * 4
	}
	for i := range p.Format {
		b += int64(len(p.Format[i])) * int64(unsafe.Sizeof(FormatPair{}))
	}
	b += int64(len(p.BucketOff))*4 + int64(len(p.Cats))*4
	b += int64(len(p.ClaimsPerSource)) * 8
	return b
}

// FuseSharded builds the sharded problem for the snapshot and runs the
// method over it, producing a Result bit-identical to m.Run on the flat
// Build of the same snapshot: same answers, trust, posteriors and round
// counts. sources follows Build's convention (nil = all); maxResident
// follows BuildSharded's.
func FuseSharded(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID,
	spec model.ShardSpec, m Method, opts Options, maxResident int) (*Result, *ShardedProblem, error) {

	needs := m.Needs()
	needs.Parallelism = opts.Parallelism
	sp, err := BuildSharded(ds, snap, sources, spec, needs, maxResident)
	if err != nil {
		return nil, nil, err
	}
	res, err := sp.Run(m, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, sp, nil
}
