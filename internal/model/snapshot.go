package model

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"truthdiscovery/internal/value"
)

// Snapshot holds every claim collected on one day, sorted by (item, source).
// The paper analyses individual snapshots (e.g. 2011-07-07 for Stock,
// 2011-12-08 for Flight) and trends across a month of snapshots.
//
// A snapshot stores one claim view per item: a capacity-capped slice into
// an arena of claims. Snapshots derived from one another share arenas, so
// Apply copies only the items its delta touches and Shard copies no
// claims at all (see Apply for how the retained memory stays bounded).
// A snapshot is immutable once built; the views it hands out are shared
// and must not be modified.
type Snapshot struct {
	Day   int    // 0-based day index within the collection period
	Label string // e.g. "2011-07-07"

	items     [][]Claim // items[i] is item i's claims, in source order
	numClaims int
	// sinceCompact counts the claims Apply has laid into arenas of their
	// own since this snapshot's chain was last laid out in one arena.
	sinceCompact int
}

// NewSnapshot builds a snapshot from unsorted claims. numItems must be the
// dataset's item-table size and every claim's item must lie inside it; the
// claim slice is retained (it becomes the snapshot's arena) and sorted in
// place.
func NewSnapshot(day int, label string, numItems int, claims []Claim) *Snapshot {
	sort.Slice(claims, func(a, b int) bool {
		if claims[a].Item != claims[b].Item {
			return claims[a].Item < claims[b].Item
		}
		return claims[a].Source < claims[b].Source
	})
	s := &Snapshot{Day: day, Label: label, items: make([][]Claim, numItems), numClaims: len(claims)}
	for lo := 0; lo < len(claims); {
		it := claims[lo].Item
		if it < 0 || int(it) >= numItems {
			panic(fmt.Sprintf("model: claim on item %d outside a %d-item table", it, numItems))
		}
		hi := lo + 1
		for hi < len(claims) && claims[hi].Item == it {
			hi++
		}
		s.items[it] = claims[lo:hi:hi]
		lo = hi
	}
	return s
}

// NumItems returns the size of the item table this snapshot is indexed for.
func (s *Snapshot) NumItems() int { return len(s.items) }

// NumClaims returns the number of claims in the snapshot.
func (s *Snapshot) NumClaims() int { return s.numClaims }

// Claims yields every claim with its position, in (item, source) order:
//
//	for i, c := range snap.Claims { ... }
func (s *Snapshot) Claims(yield func(int, Claim) bool) {
	i := 0
	for _, view := range s.items {
		for _, c := range view {
			if !yield(i, c) {
				return
			}
			i++
		}
	}
}

// ItemClaims returns the claims on one item as a shared sub-slice
// (callers must not modify it).
func (s *Snapshot) ItemClaims(item ItemID) []Claim { return s.items[item] }

// BucketedItem is the tolerance-bucketed view of one item's claims: the
// shared claim sub-slice plus value buckets whose Members index into it.
// Buckets are ordered by descending provider count (Buckets[0] is dominant).
type BucketedItem struct {
	Item    ItemID
	Claims  []Claim
	Buckets []value.Bucket
}

// Providers returns the source IDs backing bucket b.
func (bi *BucketedItem) Providers(b int) []SourceID {
	out := make([]SourceID, len(bi.Buckets[b].Members))
	for i, m := range bi.Buckets[b].Members {
		out[i] = bi.Claims[m].Source
	}
	return out
}

// Bucketize produces the bucketed view of every item that has at least one
// claim in the snapshot, in item order, using the dataset's per-attribute
// tolerances.
func (s *Snapshot) Bucketize(d *Dataset) []BucketedItem {
	out := make([]BucketedItem, 0, len(s.items))
	vals := make([]value.Value, 0, 64)
	for item, claims := range s.items {
		if len(claims) == 0 {
			continue
		}
		vals = vals[:0]
		for i := range claims {
			vals = append(vals, claims[i].Val)
		}
		tol := d.Tolerance(d.Items[item].Attr)
		out = append(out, BucketedItem{
			Item:    ItemID(item),
			Claims:  claims,
			Buckets: value.Bucketize(vals, tol),
		})
	}
	return out
}

// Digest returns a stable FNV-1a digest of the snapshot's claim content
// — items, sources, exact value bits — independent of its day/label.
// Two snapshots digest equal iff they carry the same claims, which is
// what lets a serving restart decide whether a persisted run answers
// for the data it was handed (the run's options fingerprint covers the
// configuration; this covers the input).
func (s *Snapshot) Digest() string {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(len(s.items)))
	u64(uint64(s.numClaims))
	for _, view := range s.items {
		for i := range view {
			c := &view[i]
			u64(uint64(uint32(c.Item))<<32 | uint64(uint32(c.Source)))
			u64(uint64(c.Val.Kind))
			u64(math.Float64bits(c.Val.Num))
			u64(math.Float64bits(c.Val.Gran))
			// Length-prefix the only variable-length field so no two claim
			// streams can serialize to the same bytes.
			u64(uint64(len(c.Val.Text)))
			h.Write([]byte(c.Val.Text))
			u64(uint64(uint32(c.CopiedFrom)))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
