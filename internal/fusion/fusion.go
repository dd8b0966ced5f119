// Package fusion implements the sixteen data-fusion methods the paper
// evaluates (Section 4.1, Table 6), a shared iterative framework, and the
// evaluation measures of Section 4.2 (precision, recall, trustworthiness
// deviation and difference).
//
// All methods operate on a Problem: the tolerance-bucketed view of one
// snapshot restricted to the fused sources. Methods follow the paper's
// template — accumulate votes for each value of an item from its providers,
// derive source trustworthiness from the votes, iterate to convergence —
// and differ in how votes and trustworthiness are computed.
package fusion

import (
	"math"
	"time"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/parallel"
	"truthdiscovery/internal/value"
)

// Problem is the fusion input: every claimed item with its value buckets,
// restricted to the participating sources.
//
// Memory layout: Build lays every bucket in one flat []Bucket arena and
// every dense source index in one flat []int32 arena (CSR style), with
// Items[i].Buckets and Bucket.Sources as capacity-capped views into them,
// so the iteration loops walk contiguous memory instead of a pointer
// forest. The views are ordinary slices: incremental maintenance
// (UpdateProblem) lays the dirty items into arenas of their own while
// clean items keep sharing the previous arenas bit-for-bit, and re-lays
// the whole problem into one arena once half of it has been rebuilt.
type Problem struct {
	// SourceIDs maps the problem's dense source index to dataset SourceIDs.
	SourceIDs []model.SourceID
	// Items lists every item with at least one claim, in ItemID order.
	Items []ProblemItem
	// NumAttrs is the dataset's attribute-table size (per-attribute trust).
	NumAttrs int
	// ClaimsPerSource counts each source's claims (web-link methods use it).
	ClaimsPerSource []int
	// Cats assigns each item the category index of its object (the object's
	// Group: the operating airline for flights, the index membership for
	// stocks) and CatNames names the categories. Used by the per-category
	// trust extension (Section 5 of the paper).
	Cats     []int32
	CatNames []string

	// BucketOff[i]..BucketOff[i+1] is item i's span in any flat per-bucket
	// vector — a method's vote space, the 2-/3-Estimates rescale phases —
	// computed once at build time (len(Items)+1 entries).
	BucketOff []int32
	// maxBuckets is the largest per-item bucket count, the width of the
	// per-worker temporary rows every method's scratch carries.
	maxBuckets int

	// Sim[i] is item i's bucket-similarity matrix, flattened row-major
	// (len n*n for n = len(Items[i].Buckets); see SimAt); nil unless built
	// with NeedSimilarity. Build compacts all matrices into one arena.
	Sim [][]float32
	// Format[i] lists the format-subsumption pairs of item i (fine bucket
	// supported by coarse bucket); nil unless built with NeedFormat.
	Format [][]FormatPair

	// sinceCompact counts the items UpdateProblem rebuilt since the problem
	// was last laid out in one arena (by Build or a compaction).
	sinceCompact int
}

// SimAt returns the value similarity between buckets a and b of item i.
func (p *Problem) SimAt(i, a, b int) float32 {
	return p.Sim[i][a*len(p.Items[i].Buckets)+b]
}

// NumBuckets returns the total bucket count across all items — the length
// of a flat per-bucket vector laid out by BucketOff.
func (p *Problem) NumBuckets() int { return int(p.BucketOff[len(p.Items)]) }

// MaxBuckets returns the largest per-item bucket count.
func (p *Problem) MaxBuckets() int { return p.maxBuckets }

// ProblemItem is one data item's bucketed claims.
type ProblemItem struct {
	Item model.ItemID
	Attr model.AttrID
	Tol  float64
	// Buckets are ordered by descending provider count (bucket 0 is the
	// dominant value). Sources hold dense problem source indices.
	Buckets []Bucket
	// Providers is the total number of providing sources.
	Providers int
}

// Bucket is one tolerance-equivalent value group on an item.
type Bucket struct {
	Rep     value.Value
	Sources []int32
}

// FormatPair states that the coarse bucket's representative is a rounded
// version of the fine bucket's representative, so coarse providers
// partially support the fine value (the paper's formatting insight).
type FormatPair struct {
	Fine, Coarse int32
}

// BuildOptions declares which auxiliary structures a method needs.
type BuildOptions struct {
	NeedSimilarity bool
	NeedFormat     bool
	// Parallelism bounds the workers used to build the similarity and
	// format structures (0 = GOMAXPROCS, 1 = serial). The structures are
	// identical at any setting — each item's matrices are computed
	// independently.
	Parallelism int
}

// DefaultRoster returns the full source roster — the resolution of a
// nil `sources` argument everywhere the engine accepts one.
func DefaultRoster(ds *model.Dataset) []model.SourceID {
	sources := make([]model.SourceID, len(ds.Sources))
	for i := range sources {
		sources[i] = model.SourceID(i)
	}
	return sources
}

// Build constructs the fusion problem from a snapshot, keeping only claims
// by the given sources (nil = all sources).
func Build(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID, opts BuildOptions) *Problem {
	if sources == nil {
		sources = DefaultRoster(ds)
	}
	refs := make([]itemRef, snap.NumItems())
	for id := range refs {
		refs[id] = itemRef{id: model.ItemID(id), prev: -1}
	}
	p, _ := assemble(ds, snap, sources, nil, refs, true, opts)
	return p
}

// itemRef names one item of a problem under construction: the clean item
// prev of the previous problem, or (prev < 0) item id bucketized afresh
// from the snapshot.
type itemRef struct {
	id   model.ItemID
	prev int32
}

// assemble is the one constructor behind Build and UpdateProblem. refs
// lists the new problem's items in ItemID order. Every item it lays — each
// bucketized item and, with compact set, every clean item too — goes
// straight into exact-size arenas: one []Bucket, one []int32 of dense
// source indices, one similarity arena and one format-pair arena. Clean
// items outside the layout keep sharing prev's storage. A bucketized item
// no participating source claims is dropped. The returned indices name the
// bucketized items of the new problem.
func assemble(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID,
	prev *Problem, refs []itemRef, compact bool, opts BuildOptions) (*Problem, []int) {
	denseOf := make([]int32, len(ds.Sources))
	for i := range denseOf {
		denseOf[i] = -1
	}
	for i, s := range sources {
		denseOf[s] = int32(i)
	}

	// Size the arenas and the item scratch. A bucketized item is expected
	// to have as many buckets as the previous problem's average item (at
	// least one): the staging then rarely has to grow.
	perItem := 1
	if prev != nil && len(prev.Items) > 0 {
		perItem = (prev.NumBuckets() + len(prev.Items) - 1) / len(prev.Items)
	}
	nItems, nSrc, nBuckets, nFresh, maxClaims := 0, 0, 0, 0, 0
	for _, r := range refs {
		switch {
		case r.prev >= 0:
			nItems++
			if compact {
				it := &prev.Items[r.prev]
				nSrc += it.Providers
				nBuckets += len(it.Buckets)
			}
		default:
			n := participating(snap, r.id, denseOf)
			if n == 0 {
				continue // dropped below
			}
			nItems++
			nFresh++
			nSrc += n
			nBuckets += perItem
			maxClaims = max(maxClaims, n)
		}
	}
	lay := newBucketArena(nSrc, nBuckets)

	p := &Problem{SourceIDs: sources, NumAttrs: len(ds.Attrs)}
	p.Items = make([]ProblemItem, 0, nItems)
	if opts.NeedSimilarity {
		p.Sim = make([][]float32, 0, nItems)
	}
	if opts.NeedFormat {
		p.Format = make([][]FormatPair, 0, nItems)
	}
	rebuilt := make([]int, 0, nFresh)

	var k value.Bucketer
	k.Grow(maxClaims)
	vals := make([]value.Value, 0, maxClaims)
	srcs := make([]int32, 0, maxClaims)
	for _, r := range refs {
		var it ProblemItem
		lo := len(lay.stage)
		if r.prev >= 0 {
			it = prev.Items[r.prev]
			if compact {
				for _, bk := range it.Buckets {
					lay.srcs = append(lay.srcs, bk.Sources...)
					lay.push(bk.Rep)
				}
			}
		} else {
			vals, srcs = vals[:0], srcs[:0]
			claims := snap.ItemClaims(r.id)
			for i := range claims {
				if d := denseOf[claims[i].Source]; d >= 0 {
					vals = append(vals, claims[i].Val)
					srcs = append(srcs, d)
				}
			}
			if len(vals) == 0 {
				continue // the item lost all claims
			}
			attr := ds.Items[r.id].Attr
			it = ProblemItem{Item: r.id, Attr: attr, Tol: ds.Tolerance(attr), Providers: len(vals)}
			nb := k.Bucketize(vals, it.Tol)
			for b := 0; b < nb; b++ {
				for _, m := range k.Members(b) {
					lay.srcs = append(lay.srcs, srcs[m])
				}
				lay.push(k.Rep(b))
			}
			rebuilt = append(rebuilt, len(p.Items))
		}
		if r.prev < 0 || compact {
			// A length-only view: finish repoints it into the exact arena.
			it.Buckets = lay.stage[lo:len(lay.stage):len(lay.stage)]
		}
		p.Items = append(p.Items, it)
		if opts.NeedSimilarity {
			var sim []float32
			if r.prev >= 0 {
				sim = prev.Sim[r.prev]
			}
			p.Sim = append(p.Sim, sim)
		}
		if opts.NeedFormat {
			var pairs []FormatPair
			if r.prev >= 0 {
				pairs = prev.Format[r.prev]
			}
			p.Format = append(p.Format, pairs)
		}
	}
	laid := rebuilt
	if compact && len(rebuilt) < len(p.Items) {
		laid = make([]int, len(p.Items))
		for i := range laid {
			laid[i] = i
		}
	}
	lay.finish(p.Items, laid)
	layAux(p, laid, rebuilt, opts)
	countClaims(p)
	assignCats(p, ds)
	indexBuckets(p)
	return p, rebuilt
}

// participating counts the claims on item id by sources of the problem.
func participating(snap *model.Snapshot, id model.ItemID, denseOf []int32) int {
	claims := snap.ItemClaims(id)
	n := 0
	for i := range claims {
		if denseOf[claims[i].Source] >= 0 {
			n++
		}
	}
	return n
}

// bucketArena lays buckets and their dense source indices out
// contiguously. The source arena is allocated at its exact final size up
// front; buckets are staged until their count is known, then copied once
// into an exact-size arena by finish.
type bucketArena struct {
	srcs  []int32
	mark  int // start of the sources of the bucket being filled
	stage []Bucket
}

// newBucketArena sizes the source arena exactly and the staging at an
// estimate of the bucket count.
func newBucketArena(nSrc, nBuckets int) *bucketArena {
	return &bucketArena{srcs: make([]int32, 0, nSrc), stage: make([]Bucket, 0, max(nBuckets, 1))}
}

// push stages one bucket over the sources appended since the previous one.
// A full staging doubles, so the number of regrowths depends on buckets
// per item, not on the item count.
func (a *bucketArena) push(rep value.Value) {
	if len(a.stage) == cap(a.stage) {
		grown := make([]Bucket, len(a.stage), 2*cap(a.stage))
		copy(grown, a.stage)
		a.stage = grown
	}
	a.stage = append(a.stage, Bucket{Rep: rep, Sources: a.srcs[a.mark:len(a.srcs):len(a.srcs)]})
	a.mark = len(a.srcs)
}

// finish copies the staged buckets into their exact-size arena and
// repoints the laid items (ascending indices, staged in that order) at
// capacity-capped views of it.
func (a *bucketArena) finish(items []ProblemItem, laid []int) {
	buckets := make([]Bucket, len(a.stage))
	copy(buckets, a.stage)
	off := 0
	for _, i := range laid {
		nb := len(items[i].Buckets)
		items[i].Buckets = buckets[off : off+nb : off+nb]
		off += nb
	}
}

// indexBuckets computes BucketOff and maxBuckets from the item list.
// Build, UpdateProblem and filterProblem all finish with it, so every
// Problem supports flat per-bucket vectors.
func indexBuckets(p *Problem) {
	p.BucketOff = make([]int32, len(p.Items)+1)
	p.maxBuckets = 0
	for i := range p.Items {
		nb := len(p.Items[i].Buckets)
		p.BucketOff[i+1] = p.BucketOff[i] + int32(nb)
		if nb > p.maxBuckets {
			p.maxBuckets = nb
		}
	}
}

// countClaims derives ClaimsPerSource from the final item list (every claim
// is a member of exactly one bucket).
func countClaims(p *Problem) {
	p.ClaimsPerSource = make([]int, len(p.SourceIDs))
	for i := range p.Items {
		for _, bk := range p.Items[i].Buckets {
			for _, s := range bk.Sources {
				p.ClaimsPerSource[s]++
			}
		}
	}
}

// assignCats assigns the per-item category indices (object groups) in item
// order, numbering categories by first appearance.
func assignCats(p *Problem, ds *model.Dataset) {
	catIndex := make(map[string]int32)
	p.Cats = make([]int32, 0, len(p.Items))
	p.CatNames = nil
	for i := range p.Items {
		group := ds.Objects[ds.Items[p.Items[i].Item].Object].Group
		cat, ok := catIndex[group]
		if !ok {
			cat = int32(len(p.CatNames))
			catIndex[group] = cat
			p.CatNames = append(p.CatNames, group)
		}
		p.Cats = append(p.Cats, cat)
	}
}

// layAux lays the similarity matrices and format pairs of the laid items
// (ascending indices) into one exact-size arena each. Items in rebuilt (a
// subset of laid) are computed afresh; the other laid items arrive with
// their previous structures in p.Sim and p.Format, which are copied. Each
// item's structures are independent, so the per-item computation fans out
// across the configured workers with disjoint writes (parallel == serial
// exactly).
func layAux(p *Problem, laid, rebuilt []int, opts BuildOptions) {
	if !opts.NeedSimilarity && !opts.NeedFormat {
		return
	}
	if opts.NeedSimilarity {
		total := 0
		for _, i := range laid {
			n := len(p.Items[i].Buckets)
			total += n * n
		}
		arena := make([]float32, total)
		for _, i := range laid {
			n := len(p.Items[i].Buckets)
			view := arena[: n*n : n*n]
			arena = arena[n*n:]
			copy(view, p.Sim[i]) // rebuilt items arrive nil
			p.Sim[i] = view
		}
	}
	parallel.For(len(rebuilt), opts.Parallelism, func(lo, hi int) {
		for _, i := range rebuilt[lo:hi] {
			if opts.NeedSimilarity {
				fillSim(p.Sim[i], &p.Items[i])
			}
			if opts.NeedFormat {
				p.Format[i] = formatFor(&p.Items[i])
			}
		}
	})
	if opts.NeedFormat {
		total := 0
		for _, i := range laid {
			total += len(p.Format[i])
		}
		arena := make([]FormatPair, 0, total)
		for _, i := range laid {
			if len(p.Format[i]) == 0 {
				continue // keep nil for pair-free items, as formatFor does
			}
			lo := len(arena)
			arena = append(arena, p.Format[i]...)
			p.Format[i] = arena[lo:len(arena):len(arena)]
		}
	}
}

// fillSim writes one item's bucket-similarity matrix, flattened row-major
// (the layout SimAt indexes), into a zeroed n*n view.
func fillSim(sim []float32, it *ProblemItem) {
	n := len(it.Buckets)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				sim[a*n+b] = float32(value.Similarity(it.Buckets[a].Rep, it.Buckets[b].Rep, it.Tol))
			}
		}
	}
}

// formatFor computes one item's format-subsumption pairs.
func formatFor(it *ProblemItem) []FormatPair {
	var pairs []FormatPair
	for a := range it.Buckets {
		for b := range it.Buckets {
			if a != b && value.RoundsTo(it.Buckets[a].Rep, it.Buckets[b].Rep) {
				pairs = append(pairs, FormatPair{Fine: int32(a), Coarse: int32(b)})
			}
		}
	}
	return pairs
}

// Options configures one fusion run.
type Options struct {
	// MaxRounds and Epsilon bound the iteration (defaults 100 and 1e-6).
	MaxRounds int
	Epsilon   float64
	// Parallelism bounds the workers used for the per-item vote/posterior
	// phase of each iteration and for copy detection (0 = GOMAXPROCS,
	// 1 = serial: no goroutines spawned). Results are bit-identical at
	// any setting: the parallel phases only ever write disjoint per-item
	// state, and floating-point reductions (trust re-estimation, the
	// detector's chunk merge) run in a fixed order that never depends on
	// the worker count.
	Parallelism int
	// InputTrust, when non-nil, supplies the sampled source trustworthiness
	// (in the method's own scale, per SampleTrust) and disables the trust
	// re-estimation loop — the paper's "prec w. trust" columns.
	InputTrust []float64
	// InputAttrTrust optionally supplies per-(source, attribute) sampled
	// trust for the per-attribute methods.
	InputAttrTrust [][]float64
	// KnownGroups, when non-nil, gives ACCUCOPY the discovered copying
	// groups (Table 5): all members but the first are ignored, as the paper
	// does when input trust is supplied.
	KnownGroups [][]model.SourceID
	// NFalse is the assumed number of uniformly distributed false values in
	// the Bayesian methods (default 50).
	NFalse float64
	// SimWeight is the similarity/formatting boost factor rho (default 0.5).
	SimWeight float64
	// CopyDetectSimilarityAware lets ACCUCOPY's copy detection treat values
	// highly similar to the current truth as true — the strongest form of
	// the robustness fix the paper calls for in Section 5.
	CopyDetectSimilarityAware bool
	// CopyDetectPaper2009 reverts ACCUCOPY's detector to the plain 2009
	// model: uniform false-value likelihood and no contested-value
	// handling. This reproduces the false-positive failure the paper
	// reports on numeric (Stock) data.
	CopyDetectPaper2009 bool
	// CopyDetectChunkSize tunes the detector's observation-accumulation
	// grain (copydetect.Options.CountChunkSize; 0 keeps the default).
	// Runs compare bit-identically only when they use the same grain.
	CopyDetectChunkSize int
	// InitialTrust seeds the trust-estimation iteration without disabling
	// it — the Section 5 suggestion of starting from "seed trustworthiness
	// better than the currently employed default values" (see SeedTrust).
	// Ignored when InputTrust is set.
	InitialTrust []float64
}

// startTrust resolves the trust vector a method begins with: sampled input
// trust if given, then the iteration seed, then nil (method default).
func (o Options) startTrust() []float64 {
	if o.InputTrust != nil {
		return o.InputTrust
	}
	return o.InitialTrust
}

func (o Options) withDefaults() Options {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 100
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-6
	}
	if o.NFalse <= 0 {
		o.NFalse = 50
	}
	if o.SimWeight <= 0 {
		o.SimWeight = 0.5
	}
	return o
}

// Result is one fusion run's output.
type Result struct {
	Method string
	// Chosen[i] is the winning bucket of Problem.Items[i].
	Chosen []int32
	// Trust is the final per-source trustworthiness in the method's scale
	// (nil for VOTE).
	Trust []float64
	// AttrTrust is the per-attribute trust for the attr methods.
	AttrTrust [][]float64
	// Posteriors holds the per-item per-bucket value probabilities of the
	// final round for methods that compute them (the ACCU family). They are
	// the reusable half of a fused state: incremental fusion reads the
	// clean items' posteriors when re-estimating trust. Rows may be shared
	// with earlier results and must be treated as read-only.
	Posteriors [][]float64
	Rounds     int
	Converged  bool
	Elapsed    time.Duration
	// Plan records the execution decision that produced this result on
	// the incremental path (State.Advance): the
	// chosen path and layout plus the measured delta features the planner
	// decided on. Nil for from-scratch runs.
	Plan *Plan
}

// Eval holds the Section 4.2 measures for one run against a gold standard.
type Eval struct {
	// Precision is the share of output values on gold items that agree
	// with gold; Recall the share of gold items answered correctly. When
	// every gold item receives an output the two coincide, as the paper
	// notes.
	Precision float64
	Recall    float64
	// TrustDev is Eq. 4 between sampled and computed trust; TrustDiff the
	// mean computed minus mean sampled trust. Zero for VOTE.
	TrustDev  float64
	TrustDiff float64
	// Errors counts gold items answered incorrectly.
	Errors int
}

// Evaluate scores a fusion result against a gold standard.
func Evaluate(ds *model.Dataset, p *Problem, res *Result, gold *model.TruthTable) Eval {
	right, answered := 0, 0
	for i := range p.Items {
		it := &p.Items[i]
		truth, ok := gold.Get(it.Item)
		if !ok {
			continue
		}
		answered++
		rep := it.Buckets[res.Chosen[i]].Rep
		if value.Equal(truth, rep, it.Tol) {
			right++
		}
	}
	var e Eval
	if answered > 0 {
		e.Precision = float64(right) / float64(answered)
	}
	if gold.Len() > 0 {
		e.Recall = float64(right) / float64(gold.Len())
	}
	e.Errors = answered - right
	return e
}

// EvaluateTrust fills the trust deviation/difference fields by comparing
// the result's computed trust with the sampled trust (the method's scale).
func EvaluateTrust(e *Eval, res *Result, sampled []float64) {
	if res.Trust == nil || len(sampled) != len(res.Trust) {
		return
	}
	var dev, diff float64
	for i := range sampled {
		d := res.Trust[i] - sampled[i]
		dev += d * d
		diff += d
	}
	n := float64(len(sampled))
	e.TrustDev = math.Sqrt(dev / n)
	e.TrustDiff = diff / n
}

// SampleAccuracy computes each problem source's accuracy on the gold items
// of the given snapshot — the paper's "sampled trustworthiness" before any
// method-specific scaling. Sources with no claims on gold items (the
// airport sites cover almost nothing) have unknown accuracy and default to
// the mean accuracy of the sampled sources rather than zero, which would
// poison trust-seeded runs and copy detection.
func SampleAccuracy(ds *model.Dataset, snap *model.Snapshot, p *Problem, gold *model.TruthTable) []float64 {
	return SampleAccuracySources(ds, snap, p.SourceIDs, gold)
}

// SampleAccuracySources is SampleAccuracy for callers that know the
// fused roster without holding a Problem (the sharded public API must
// not build a flat arena just to sample trust).
func SampleAccuracySources(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID, gold *model.TruthTable) []float64 {
	acc, cov := gold.SourceAccuracy(ds, snap)
	out := make([]float64, len(sources))
	var sum float64
	n := 0
	for _, s := range sources {
		if cov[s] > 0 {
			sum += acc[s]
			n++
		}
	}
	mean := 0.8
	if n > 0 {
		mean = sum / float64(n)
	}
	for i, s := range sources {
		if cov[s] > 0 {
			out[i] = acc[s]
		} else {
			out[i] = mean
		}
	}
	return out
}

// SampleAttrAccuracy computes per-(source, attribute) accuracy on gold
// items, with the source's overall accuracy as fallback for unseen pairs.
func SampleAttrAccuracy(ds *model.Dataset, snap *model.Snapshot, p *Problem, gold *model.TruthTable) [][]float64 {
	return SampleAttrAccuracySources(ds, snap, p.SourceIDs, gold)
}

// SampleAttrAccuracySources is SampleAttrAccuracy keyed by an explicit
// roster.
func SampleAttrAccuracySources(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID, gold *model.TruthTable) [][]float64 {
	acc, _ := gold.SourceAccuracy(ds, snap)
	per := gold.PerAttrAccuracy(ds, snap, acc)
	out := make([][]float64, len(sources))
	for i, s := range sources {
		out[i] = per[s]
	}
	return out
}

// argmax32 returns the index of the largest vote, preferring the lowest
// index on ties (bucket 0 is the dominant value, keeping ties deterministic
// and VOTE-compatible).
func argmax32(votes []float64) int32 {
	best := 0
	for i := 1; i < len(votes); i++ {
		if votes[i] > votes[best] {
			best = i
		}
	}
	return int32(best)
}

// maxDelta returns the largest absolute element-wise difference.
func maxDelta(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

// normalizeMax scales xs so its maximum is 1 (no-op for all-zero input).
func normalizeMax(xs []float64) {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	if m <= 0 {
		return
	}
	for i := range xs {
		xs[i] /= m
	}
}

// rescale01 linearly rescales xs to span [lo, hi] (the "complex
// normalization" of 2-ESTIMATES / 3-ESTIMATES).
func rescale01(xs []float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi <= lo {
		return
	}
	for i := range xs {
		xs[i] = (xs[i] - lo) / (hi - lo)
	}
}

func clampTrust(x, lo, hi float64) float64 {
	if math.IsNaN(x) {
		return lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
