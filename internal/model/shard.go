package model

import "fmt"

// Item sharding: the partitioning layer under the sharded fusion engine.
// A ShardSpec splits the item-ID space into contiguous ranges, a pure
// function of the item ID, so the assignment is stable across runs,
// processes and machines, and global item order is "shard 0's items,
// then shard 1's, ...". Snapshots and deltas both partition cleanly by
// item — a claim belongs to its item's shard, and a delta operation keys
// on the item whose claim set it edits — which is what lets per-item
// fusion phases run shard by shard while trust estimation merges across
// shards in one deterministic pass, in shard order.

// ShardSpec is a stable item partitioning: Shards contiguous ranges over
// an item table of NumItems entries, with shard boundaries at
// i*NumItems/Shards. The zero value is invalid; use RangeShards.
type ShardSpec struct {
	// Shards is the shard count (>= 1).
	Shards int
	// NumItems is the item-table size the spec partitions: it defines the
	// range boundaries, and Snapshot.Shard and Delta.Split verify the spec
	// matches the data they partition.
	NumItems int
}

// RangeShards returns a spec of the given shard count over an item table
// of the given size.
func RangeShards(shards, numItems int) ShardSpec {
	return ShardSpec{Shards: shards, NumItems: numItems}
}

// Validate reports whether the spec is usable. An empty item table
// (NumItems 0) is legal — every shard is simply empty — so sharding an
// empty world behaves like fusing one.
func (sp ShardSpec) Validate() error {
	if sp.Shards < 1 {
		return fmt.Errorf("model: shard spec needs at least 1 shard, got %d", sp.Shards)
	}
	if sp.NumItems < 0 {
		return fmt.Errorf("model: shard spec needs a non-negative item-table size, got %d", sp.NumItems)
	}
	return nil
}

// ShardOf returns the shard the item belongs to: a pure function of
// (spec, item), stable across runs.
func (sp ShardSpec) ShardOf(item ItemID) int {
	return int(uint64(item) * uint64(sp.Shards) / uint64(sp.NumItems))
}

// checkSpec validates the spec against a partitioned structure's item
// table.
func (sp ShardSpec) checkSpec(numItems int, what string) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	if sp.NumItems != numItems {
		return fmt.Errorf("model: shard spec for %d items cannot partition a %s with %d",
			sp.NumItems, what, numItems)
	}
	return nil
}

// Shard partitions the snapshot into one per-shard snapshot: shard k
// holds exactly the claims whose item maps to shard k, in the original
// claim order. Every shard keeps the full item table (item IDs stay
// global) and the snapshot's Day/Label identity, so a shard snapshot is
// a first-class Snapshot — it indexes, diffs and applies like any other.
// Shards share the receiver's item views, so no claim is copied: a shard
// costs its item table. A one-shard spec returns the receiver itself.
func (s *Snapshot) Shard(sp ShardSpec) ([]*Snapshot, error) {
	if err := sp.checkSpec(len(s.items), "snapshot"); err != nil {
		return nil, err
	}
	if sp.Shards == 1 {
		return []*Snapshot{s}, nil
	}
	out := make([]*Snapshot, sp.Shards)
	for k := range out {
		out[k] = &Snapshot{Day: s.Day, Label: s.Label, items: make([][]Claim, len(s.items))}
	}
	for it, view := range s.items {
		sh := out[sp.ShardOf(ItemID(it))]
		sh.items[it] = view
		sh.numClaims += len(view)
	}
	return out, nil
}

// Split partitions the delta by item shard: shard k's delta holds
// exactly the operations on items mapping to shard k, in the original
// op order, so applying split[k] to the base's shard k reproduces the
// target's shard k (asserted by the shard property tests). Op-list
// order is preserved, so a sorted delta (Diff output) splits into
// sorted shard deltas and the Apply fast path survives the routing. An
// op on an item outside the table is an error. A one-shard spec returns
// the receiver itself: nothing is copied, and Apply checks the items.
func (d *Delta) Split(sp ShardSpec) ([]*Delta, error) {
	if err := sp.checkSpec(d.NumItems, "delta"); err != nil {
		return nil, err
	}
	if sp.Shards == 1 {
		return []*Delta{d}, nil
	}
	out := make([]*Delta, sp.Shards)
	for k := range out {
		out[k] = &Delta{
			FromDay:   d.FromDay,
			ToDay:     d.ToDay,
			FromLabel: d.FromLabel,
			ToLabel:   d.ToLabel,
			NumItems:  d.NumItems,
			sorted:    d.sorted,
		}
	}
	for i := range d.Added {
		if err := checkItem(int(d.Added[i].Item), d.NumItems); err != nil {
			return nil, err
		}
		k := sp.ShardOf(d.Added[i].Item)
		out[k].Added = append(out[k].Added, d.Added[i])
	}
	for i := range d.Retracted {
		if err := checkItem(int(d.Retracted[i].Item), d.NumItems); err != nil {
			return nil, err
		}
		k := sp.ShardOf(d.Retracted[i].Item)
		out[k].Retracted = append(out[k].Retracted, d.Retracted[i])
	}
	for i := range d.Changed {
		if err := checkItem(int(d.Changed[i].Old.Item), d.NumItems); err != nil {
			return nil, err
		}
		k := sp.ShardOf(d.Changed[i].Old.Item)
		out[k].Changed = append(out[k].Changed, d.Changed[i])
	}
	return out, nil
}

// checkItem reports a delta op on an item outside the item table.
func checkItem(it, numItems int) error {
	if it < 0 || it >= numItems {
		return fmt.Errorf("model: delta op on item %d outside a %d-item table", it, numItems)
	}
	return nil
}
