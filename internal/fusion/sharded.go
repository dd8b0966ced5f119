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
// bucketed problem of its own contiguous item range (built from the
// shard's snapshot, sharing the full dense source roster so source
// indices are global), phases run shard-by-shard — concurrently when
// every shard's arena is resident, or sequentially under a memory budget
// that keeps at most MaxResident arenas alive — and the per-source trust
// reduction folds the shards in order, which is ascending global item
// order: the same floating-point association at every shard count. The
// methods' rounds are the round protocol's (dist.go), run on one
// in-process executor over this shard set, so the result is bit-identical
// at any shard count: same answers, same trust vectors, same posteriors,
// same round counts (asserted by sharded_test.go for all sixteen methods
// and the extensions).
//
// One shard is the flat layout: the part is the snapshot and the built
// Problem themselves, and every per-part structure aliases the problem's
// own, so nothing is copied. Method.Run wraps its Problem the same way
// (onePart).
//
// BuildSharded builds a run of the spec's shards (all of them in one
// process, its owned range on a fleet worker), and
// ShardedProblem.Advance (incremental.go) moves such a set across one
// split delta, for the engine's State and the fleet workers alike.

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

	// Stable metadata (identical on every rebuild), recorded from the
	// built problem — its immutable slices are shared, not copied — so
	// assembly, and every later re-assembly after an Advance, never
	// rescans the shard's claims; untouched shards carry their metadata
	// forward unchanged.
	n          int      // item count
	base       int      // global index of the shard's first item
	off        []int32  // bucket offsets (len n+1)
	cps        []int    // the shard's own per-source claim counts
	cats       []int32  // per-item category, shard-local numbering
	catNames   []string // shard-local category names
	maxBuckets int
	arenaBytes int64
}

// carryForward returns a copy of the part for the next generation of a
// ShardedProblem: the immutable metadata (and the resident arena) is
// shared, while base, which finishAssembly rewrites, gets its own slot
// so the previous generation stays valid.
func (pt *shardPart) carryForward() *shardPart {
	npt := *pt
	return &npt
}

// numBuckets returns the shard's total bucket count.
func (pt *shardPart) numBuckets() int { return int(pt.off[pt.n]) }

// ShardedProblem is the fusion input partitioned by item range: N
// per-shard Problems sharing one global dense source roster, plus the
// global per-source claim counts the cross-shard reductions read. Shard
// order is item order, so an item's global index is its shard's base
// plus its index in the shard.
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

	// MaxResident caps how many shard arenas stay resident (0 = all).
	MaxResident int

	parts    []*shardPart
	numItems int

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
func (sp *ShardedProblem) NumItems() int { return sp.numItems }

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

// BuildSharded partitions the snapshot with the spec and builds the
// problems of shards [lo, hi), keeping only claims by the given sources
// (nil = all, as Build). One process builds them all, [0, spec.Shards).
// A fleet worker builds its owned run, a contiguous range of global
// item order, so chaining the workers in shard order reproduces the
// one-process fold association; its ClaimsPerSource covers the owned
// shards only, and distributed runs read the coordinator's global sum
// instead (NewDistExec). maxResident > 0 bounds how many shard arenas
// stay resident between passes.
func BuildSharded(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID,
	spec model.ShardSpec, lo, hi int, needs BuildOptions, maxResident int) (*ShardedProblem, error) {

	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi > spec.Shards || lo >= hi {
		return nil, fmt.Errorf("fusion: shard range [%d, %d) outside [0, %d)", lo, hi, spec.Shards)
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
	for k, shSnap := range snaps[lo:hi] {
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
// built problem. A problem's offsets, claim counts and categories never
// change after its build, so the part shares them.
func recordPart(pt *shardPart, p *Problem) {
	pt.n = len(p.Items)
	pt.off = p.BucketOff
	pt.maxBuckets = p.MaxBuckets()
	pt.arenaBytes = problemArenaBytes(p)
	pt.cps = p.ClaimsPerSource
	pt.cats, pt.catNames = p.Cats, p.CatNames
}

// finishAssembly derives the cross-shard structures from the parts'
// recorded metadata: each shard's global base and the global claim
// counts. It reads only the recorded metadata — no shard arena and no
// claim scan.
func (sp *ShardedProblem) finishAssembly() {
	sp.numItems = 0
	for _, pt := range sp.parts {
		pt.base = sp.numItems
		sp.numItems += pt.n
	}
	// Global claim counts: exact integer sums of the recorded local
	// counts (one shard's are the global ones).
	if len(sp.parts) == 1 {
		sp.ClaimsPerSource = sp.parts[0].cps
	} else {
		sp.ClaimsPerSource = make([]int, len(sp.SourceIDs))
		for _, pt := range sp.parts {
			for s, c := range pt.cps {
				sp.ClaimsPerSource[s] += c
			}
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

// globalCats numbers the shards' categories by first appearance in
// global item order, exactly as assignCats does on a flat problem, and
// returns the category count with each shard's per-item categories. One
// shard's own numbering is already the global one. Parts without
// category data (filterProblem output carries none) yield no
// categories.
func (sp *ShardedProblem) globalCats() (int, [][]int32) {
	cats := make([][]int32, len(sp.parts))
	for k, pt := range sp.parts {
		if len(pt.cats) != pt.n {
			return 0, nil
		}
		cats[k] = pt.cats
	}
	if len(sp.parts) == 1 {
		return len(sp.parts[0].catNames), cats
	}
	catIndex := make(map[string]int32)
	for k, pt := range sp.parts {
		cats[k] = make([]int32, pt.n)
		for i, c := range pt.cats {
			name := pt.catNames[c]
			cat, ok := catIndex[name]
			if !ok {
				cat = int32(len(catIndex))
				catIndex[name] = cat
			}
			cats[k][i] = cat
		}
	}
	return len(catIndex), cats
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
// phases write only disjoint per-shard state) before the fold. Budget
// mode: shards are loaded, phased, folded and released strictly in
// shard order. Either way the fold visits items in shard order, which is
// global item order, at every layout.
func (sp *ShardedProblem) sweep(parallelism int,
	phase func(k int, p *Problem, par int),
	fold func(k int, p *Problem, i, g int)) {

	if !sp.budget() && phase != nil {
		sp.phaseResident(parallelism, phase)
		if fold == nil {
			return
		}
		phase = nil
	}
	for k, pt := range sp.parts {
		p := sp.load(k)
		if phase != nil {
			phase(k, p, parallelism)
		}
		if fold != nil {
			for i := 0; i < pt.n; i++ {
				fold(k, p, i, pt.base+i)
			}
		}
		sp.release(k)
	}
}

// phaseResident fans a phase out over the resident shards. It is a
// function of its own so that only its copy of phase is captured by the
// task closures: the sweep's parameter then stays on the stack, and a
// serial sweep allocates nothing.
func (sp *ShardedProblem) phaseResident(parallelism int, phase func(k int, p *Problem, par int)) {
	workers := parallel.Workers(parallelism)
	if workers <= 1 || len(sp.parts) < workers {
		for k := range sp.parts {
			phase(k, sp.load(k), parallelism)
		}
		return
	}
	tasks := make([]func(), len(sp.parts))
	for k := range sp.parts {
		tasks[k] = func() { phase(k, sp.load(k), 1) }
	}
	parallel.Run(parallelism, tasks)
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
	chosen := make([]int32, sp.NumItems())
	for k, pt := range sp.parts {
		for i := 0; i < pt.n; i++ {
			chosen[pt.base+i] = argmax32(spaces[k].row(i))
		}
	}
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
// method over it, producing a Result bit-identical to m.Run on the
// one-problem Build of the same snapshot: same answers, trust,
// posteriors and round counts. sources follows Build's convention (nil = all); maxResident
// follows BuildSharded's.
func FuseSharded(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID,
	spec model.ShardSpec, m Method, opts Options, maxResident int) (*Result, *ShardedProblem, error) {

	needs := m.Needs()
	needs.Parallelism = opts.Parallelism
	sp, err := BuildSharded(ds, snap, sources, spec, 0, spec.Shards, needs, maxResident)
	if err != nil {
		return nil, nil, err
	}
	res, err := sp.Run(m, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, sp, nil
}
