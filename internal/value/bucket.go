package value

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
)

// DefaultAlpha is the paper's default tolerance factor for Eq. 3:
// tau(A) = alpha * Median(V(A)).
const DefaultAlpha = 0.01

// DefaultTimeToleranceMinutes is the paper's tolerance for clock times:
// "For time we are tolerant to 10-minute difference."
const DefaultTimeToleranceMinutes = 10.0

// Tolerance computes the comparison tolerance for one attribute per the
// paper's Section 3.2: for numeric attributes it is alpha times the median of
// all values observed for the attribute (Eq. 3, using absolute magnitude so
// that attributes centred near zero, like change%, still get a usable band);
// for times it is a fixed minute budget; for text it is zero (exact match).
func Tolerance(kind Kind, all []float64, alpha float64) float64 {
	switch kind {
	case Text:
		return 0
	case Time:
		return DefaultTimeToleranceMinutes
	default:
		if len(all) == 0 {
			return 0
		}
		med := math.Abs(Median(all))
		tol := alpha * med
		if tol <= 0 {
			// Degenerate attribute (median zero): fall back to a small
			// absolute band derived from the value spread so equal-to-zero
			// items still bucket.
			tol = alpha * meanAbs(all)
		}
		return tol
	}
}

// Median returns the median of xs without modifying the input.
// It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

func meanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s / float64(len(xs))
}

// Bucket is one group of tolerance-equivalent values on a single data item,
// produced by Bucketize. Rep is the representative value (the one provided by
// the most sources within the bucket, ties broken toward the first seen);
// Members holds the indices of the bucketed input values.
type Bucket struct {
	Rep     Value
	Members []int
}

// Bucketize groups the values provided on one data item per the paper's
// procedure: starting from the dominant value v0, numeric values are assigned
// to intervals (v0+(k-1/2)tau, v0+(k+1/2)tau]; text values group by exact
// normalised equality. The dominant bucket is found by first grouping exactly
// equal values, picking the most-provided as v0, then merging within
// tolerance. Buckets are returned ordered by descending size with ties broken
// by first occurrence, so Buckets[0] is the dominant value's bucket.
//
// Numbers are expected to be finite (Parse refuses the rest). Bucketize
// allocates its result; hot loops that bucketize item after item use a
// Bucketer, which computes the same buckets in reusable scratch.
func Bucketize(values []Value, tol float64) []Bucket {
	if len(values) == 0 {
		return nil
	}
	var k Bucketer
	nb := k.Bucketize(values, tol)
	out := make([]Bucket, nb)
	members := make([]int, len(values))
	for b := range out {
		ms := members[k.off[b]:k.off[b+1]:k.off[b+1]]
		for j, m := range k.Members(b) {
			ms[j] = int(m)
		}
		out[b] = Bucket{Rep: k.Rep(b), Members: ms}
	}
	return out
}

// Bucketer is the bucketize kernel with caller-owned scratch. The zero
// value is ready to use; once its buffers have grown to the largest item
// seen, bucketizing allocates nothing. A Bucketer is not safe for
// concurrent use.
//
// The kernel is sort-based: sorting the values groups the exactly equal
// ones; the most provided group is v0 and gives every group its tolerance
// key round((x-v0)/tau); groups with one key form a bucket, represented
// by its most provided group; the buckets are then ranked by size and
// first occurrence.
type Bucketer struct {
	// Output of the last Bucketize call, in bucket order: bucket b has
	// representative reps[b] and members[off[b]:off[b+1]], ascending.
	reps    []Value
	off     []int32
	members []int32

	ent    []entry  // (sort key, index) of every value, sorted
	grpOf  []int32  // exact group of every value
	grps   []group  // exact groups, in sort order
	byKey  []int32  // group ids ordered by tolerance key
	bkts   []bucket // buckets, in tolerance-key order
	rankOf []int32  // final position of every bucket
	byRank []int32  // bucket ids in final order
	next   []int32  // next free member slot of every bucket
}

// entry is one value's sort record: its order-preserving numeric key and
// its index in the input.
type entry struct {
	key uint64
	idx int32
}

// group is one run of exactly equal values.
type group struct {
	lo, count int32 // span in the sorted entries
	first     int32 // smallest member index
	bkt       int32 // bucket id
	tk        int64 // tolerance key
}

// bucket is one tolerance bucket before ranking.
type bucket struct {
	first, count int32
	rep          int32 // group id of the representative
}

// Grow sizes the scratch for items of up to n values, so that bucketizing
// them allocates nothing.
func (k *Bucketer) Grow(n int) {
	k.reps = slices.Grow(k.reps[:0], n)
	k.off = slices.Grow(k.off[:0], n+1)
	k.members = slices.Grow(k.members[:0], n)
	k.ent = slices.Grow(k.ent[:0], n)
	k.grpOf = slices.Grow(k.grpOf[:0], n)
	k.grps = slices.Grow(k.grps[:0], n)
	k.byKey = slices.Grow(k.byKey[:0], n)
	k.bkts = slices.Grow(k.bkts[:0], n)
	k.rankOf = slices.Grow(k.rankOf[:0], n)
	k.byRank = slices.Grow(k.byRank[:0], n)
	k.next = slices.Grow(k.next[:0], n)
}

// Members returns the input indices of bucket b of the last Bucketize
// call, ascending. The slice is scratch: it is overwritten by the next
// call.
func (k *Bucketer) Members(b int) []int32 { return k.members[k.off[b]:k.off[b+1]] }

// Rep returns the representative value of bucket b of the last Bucketize
// call.
func (k *Bucketer) Rep(b int) Value { return k.reps[b] }

// Bucketize buckets values exactly as the package-level Bucketize does and
// returns the bucket count; Rep and Members read the buckets back.
func (k *Bucketer) Bucketize(values []Value, tol float64) int {
	n := len(values)
	k.reps, k.off, k.members = k.reps[:0], append(k.off[:0], 0), k.members[:0]
	if n == 0 {
		return 0
	}
	exact := values[0].Kind == Text || tol <= 0

	ent := k.ent[:0]
	for i := range values {
		ent = append(ent, entry{key: numKey(values[i].Num), idx: int32(i)})
	}
	k.ent = ent
	k.sortEntries(values, exact)

	// Exact groups: runs of equal values.
	k.grpOf = slices.Grow(k.grpOf[:0], n)[:n]
	grps := k.grps[:0]
	for j, e := range ent {
		if j == 0 || !sameValue(values, ent[j-1], e, exact) {
			grps = append(grps, group{lo: int32(j), first: e.idx})
		}
		g := &grps[len(grps)-1]
		g.count++
		k.grpOf[e.idx] = int32(len(grps) - 1)
	}
	k.grps = grps

	bkts := k.bkts[:0]
	if exact {
		for g := range grps {
			grps[g].bkt = int32(g)
			bkts = append(bkts, bucket{first: grps[g].first, count: grps[g].count, rep: int32(g)})
		}
	} else {
		bkts = k.toleranceBuckets(values, tol, bkts)
	}
	k.bkts = bkts

	// Rank the buckets by descending size, then first occurrence.
	byRank := k.byRank[:0]
	for b := range bkts {
		byRank = append(byRank, int32(b))
	}
	slices.SortFunc(byRank, func(a, b int32) int {
		if c := cmp.Compare(bkts[b].count, bkts[a].count); c != 0 {
			return c
		}
		return cmp.Compare(bkts[a].first, bkts[b].first)
	})
	k.byRank = byRank
	k.rankOf = slices.Grow(k.rankOf[:0], len(bkts))[:len(bkts)]
	for r, b := range byRank {
		k.rankOf[b] = int32(r)
		rep := values[grps[bkts[b].rep].first]
		if !exact {
			// The representative keeps the finest granularity among its
			// equal values, folded in input order.
			rg := grps[bkts[b].rep]
			for _, e := range ent[rg.lo : rg.lo+rg.count] {
				if g := values[e.idx].Gran; g < rep.Gran {
					rep.Gran = g
				}
			}
		}
		k.reps = append(k.reps, rep)
		k.off = append(k.off, k.off[r]+bkts[b].count)
	}

	// Scatter the members in input order, so each bucket's run ascends.
	k.members = slices.Grow(k.members, n)[:n]
	next := append(k.next[:0], k.off[:len(bkts)]...)
	for i := range values {
		r := k.rankOf[grps[k.grpOf[i]].bkt]
		k.members[next[r]] = int32(i)
		next[r]++
	}
	k.next = next
	return len(bkts)
}

// toleranceBuckets merges the exact groups into tolerance buckets: v0 is
// the most provided group (ties toward the first seen), every group gets
// the key round((x-v0)/tol), and groups sharing a key form one bucket
// represented by its most provided group.
func (k *Bucketer) toleranceBuckets(values []Value, tol float64, bkts []bucket) []bucket {
	grps := k.grps
	best := 0
	for g := 1; g < len(grps); g++ {
		if moreProvided(grps[g], grps[best]) {
			best = g
		}
	}
	v0 := values[grps[best].first].Num
	byKey := k.byKey[:0]
	for g := range grps {
		grps[g].tk = int64(math.Round((values[grps[g].first].Num - v0) / tol))
		byKey = append(byKey, int32(g))
	}
	// Ascending values give ascending keys, so this sort only reorders
	// when the key conversion saturates.
	slices.SortStableFunc(byKey, func(a, b int32) int { return cmp.Compare(grps[a].tk, grps[b].tk) })
	k.byKey = byKey
	for j, g := range byKey {
		if j == 0 || grps[g].tk != grps[byKey[j-1]].tk {
			bkts = append(bkts, bucket{first: grps[g].first, rep: g})
		}
		b := &bkts[len(bkts)-1]
		grps[g].bkt = int32(len(bkts) - 1)
		b.count += grps[g].count
		b.first = min(b.first, grps[g].first)
		if moreProvided(grps[g], grps[b.rep]) {
			b.rep = g
		}
	}
	return bkts
}

// moreProvided reports whether group a outranks group b as a dominant or
// representative value: more providers, ties toward the first seen.
func moreProvided(a, b group) bool {
	return a.count > b.count || (a.count == b.count && a.first < b.first)
}

// sortEntries orders the entries by value (kind, number, text for exact
// bucketing; the number alone otherwise), then input index. Numeric items
// of up to insertionMax values take an insertion sort on the key alone:
// the entries arrive in index order and equal keys never pass each other,
// so it yields the same order.
func (k *Bucketer) sortEntries(values []Value, exact bool) {
	ent := k.ent
	switch {
	case exact:
		slices.SortFunc(ent, func(a, b entry) int {
			va, vb := &values[a.idx], &values[b.idx]
			return cmp.Or(cmp.Compare(va.Kind, vb.Kind), cmp.Compare(a.key, b.key),
				strings.Compare(va.Text, vb.Text), cmp.Compare(a.idx, b.idx))
		})
	case len(ent) > insertionMax:
		slices.SortFunc(ent, func(a, b entry) int {
			return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.idx, b.idx))
		})
	default:
		for i := 1; i < len(ent); i++ {
			e := ent[i]
			j := i
			for ; j > 0 && e.key < ent[j-1].key; j-- {
				ent[j] = ent[j-1]
			}
			ent[j] = e
		}
	}
}

// insertionMax is the largest numeric item sortEntries insertion-sorts.
// At 16-64 values the insertion sort measured 3-7x faster than
// slices.SortFunc (clustered or random keys), and at 64 even its
// quadratic worst case, a reversed input, beats slices.SortFunc on random
// keys. The paper's domains stay below it (Stock has 55 sources, Flight
// 38).
const insertionMax = 64

// sameValue reports whether two sorted neighbours are exactly equal: the
// same number (either sign of zero) and, for exact bucketing, the same
// kind and text.
func sameValue(values []Value, a, b entry, exact bool) bool {
	if a.key != b.key {
		return false
	}
	if exact {
		va, vb := &values[a.idx], &values[b.idx]
		return va.Kind == vb.Kind && va.Text == vb.Text
	}
	return true
}

// numKey maps a float64 to a uint64 whose unsigned order is the numeric
// order, with -0 and +0 on one key.
func numKey(x float64) uint64 {
	if x == 0 {
		x = 0 // fold -0 onto +0
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}
