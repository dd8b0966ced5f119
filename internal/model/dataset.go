package model

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"truthdiscovery/internal/value"
)

// Dataset is one domain's full data collection: the source roster, object
// and attribute universes, the data-item table, per-attribute comparison
// tolerances, and any number of daily snapshots.
type Dataset struct {
	Domain  string
	Sources []Source
	Objects []Object
	Attrs   []Attribute
	Items   []Item

	// Tolerances holds the per-attribute comparison tolerance (Eq. 3),
	// indexed by AttrID. Populated by ComputeTolerances.
	Tolerances []float64

	Snapshots []*Snapshot

	itemIndex map[itemKey]ItemID
}

type itemKey struct {
	obj  ObjectID
	attr AttrID
}

// NewDataset creates an empty dataset for the named domain.
func NewDataset(domain string) *Dataset {
	return &Dataset{Domain: domain, itemIndex: make(map[itemKey]ItemID)}
}

// AddSource appends a source and returns its ID.
func (d *Dataset) AddSource(s Source) SourceID {
	s.ID = SourceID(len(d.Sources))
	d.Sources = append(d.Sources, s)
	return s.ID
}

// AddObject appends an object and returns its ID.
func (d *Dataset) AddObject(o Object) ObjectID {
	o.ID = ObjectID(len(d.Objects))
	d.Objects = append(d.Objects, o)
	return o.ID
}

// AddAttr appends an attribute and returns its ID.
func (d *Dataset) AddAttr(a Attribute) AttrID {
	a.ID = AttrID(len(d.Attrs))
	d.Attrs = append(d.Attrs, a)
	return a.ID
}

// ItemFor returns the ItemID for (object, attribute), allocating it on first
// use. Item allocation order is deterministic given a deterministic call
// sequence, which the generator guarantees.
func (d *Dataset) ItemFor(obj ObjectID, attr AttrID) ItemID {
	k := itemKey{obj, attr}
	if id, ok := d.itemIndex[k]; ok {
		return id
	}
	id := ItemID(len(d.Items))
	d.Items = append(d.Items, Item{ID: id, Object: obj, Attr: attr})
	d.itemIndex[k] = id
	return id
}

// LookupItem returns the ItemID for (object, attribute) if it exists.
func (d *Dataset) LookupItem(obj ObjectID, attr AttrID) (ItemID, bool) {
	id, ok := d.itemIndex[itemKey{obj, attr}]
	return id, ok
}

// Item returns the item record for id.
func (d *Dataset) Item(id ItemID) Item { return d.Items[id] }

// ConsideredAttrs returns the examined attributes in ID order.
func (d *Dataset) ConsideredAttrs() []Attribute {
	var out []Attribute
	for _, a := range d.Attrs {
		if a.Considered {
			out = append(out, a)
		}
	}
	return out
}

// SourceByName returns the source with the given name.
func (d *Dataset) SourceByName(name string) (Source, bool) {
	for _, s := range d.Sources {
		if s.Name == name {
			return s, true
		}
	}
	return Source{}, false
}

// SourceNames returns the display names of a source roster, in roster
// order.
func (d *Dataset) SourceNames(roster []SourceID) []string {
	names := make([]string, len(roster))
	for i, id := range roster {
		names[i] = d.Sources[id].Name
	}
	return names
}

// AttrByName returns the attribute with the given name.
func (d *Dataset) AttrByName(name string) (Attribute, bool) {
	for _, a := range d.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
}

// AddSnapshot appends a snapshot (claims are indexed by the snapshot itself).
func (d *Dataset) AddSnapshot(s *Snapshot) { d.Snapshots = append(d.Snapshots, s) }

// Snapshot returns the i-th snapshot.
func (d *Dataset) Snapshot(i int) *Snapshot { return d.Snapshots[i] }

// Tolerance returns the comparison tolerance for the given attribute,
// or 0 when tolerances have not been computed.
func (d *Dataset) Tolerance(attr AttrID) float64 {
	if int(attr) >= len(d.Tolerances) {
		return 0
	}
	return d.Tolerances[attr]
}

// ComputeTolerances derives the per-attribute tolerance from every value
// observed across the given snapshots (Eq. 3 with the supplied alpha; fixed
// 10 minutes for times; exact for text). Passing no snapshots uses all
// snapshots in the dataset.
func (d *Dataset) ComputeTolerances(alpha float64, snaps ...*Snapshot) {
	if len(snaps) == 0 {
		snaps = d.Snapshots
	}
	perAttr := make([][]float64, len(d.Attrs))
	for _, snap := range snaps {
		for _, c := range snap.Claims {
			a := d.Items[c.Item].Attr
			if d.Attrs[a].Kind == value.Number {
				perAttr[a] = append(perAttr[a], c.Val.Num)
			}
		}
	}
	d.Tolerances = make([]float64, len(d.Attrs))
	for i, a := range d.Attrs {
		d.Tolerances[i] = value.Tolerance(a.Kind, perAttr[i], alpha)
	}
}

// Validate performs structural sanity checks and returns the first problem
// found, or nil. It is used by tests and by the CLI when loading external
// datasets.
func (d *Dataset) Validate() error {
	for i, it := range d.Items {
		if it.ID != ItemID(i) {
			return fmt.Errorf("model: item %d has ID %d", i, it.ID)
		}
		if int(it.Object) >= len(d.Objects) {
			return fmt.Errorf("model: item %d references object %d of %d", i, it.Object, len(d.Objects))
		}
		if int(it.Attr) >= len(d.Attrs) {
			return fmt.Errorf("model: item %d references attr %d of %d", i, it.Attr, len(d.Attrs))
		}
	}
	for si, snap := range d.Snapshots {
		var prev Claim
		for ci, c := range snap.Claims {
			if int(c.Source) >= len(d.Sources) || c.Source < 0 {
				return fmt.Errorf("model: snapshot %d claim %d references source %d of %d", si, ci, c.Source, len(d.Sources))
			}
			if int(c.Item) >= len(d.Items) || c.Item < 0 {
				return fmt.Errorf("model: snapshot %d claim %d references item %d of %d", si, ci, c.Item, len(d.Items))
			}
			kind := d.Attrs[d.Items[c.Item].Attr].Kind
			if c.Val.Kind != kind {
				return fmt.Errorf("model: snapshot %d claim %d value kind %v, attr wants %v", si, ci, c.Val.Kind, kind)
			}
			if ci > 0 && claimKeyLess(&c, &prev) {
				return fmt.Errorf("model: snapshot %d claims not sorted", si)
			}
			prev = c
		}
	}
	return nil
}

// ToleranceDigest returns a stable FNV-1a digest of the per-attribute
// tolerance regime (exact float bits, in attribute order). Tolerances
// are derived from every snapshot of the collection period
// (ComputeTolerances), so two worlds with identical day-0 claims but
// different periods digest differently — a fused run's answers depend on
// the regime, and the serving layer folds this digest into its resume
// fingerprint alongside Snapshot.Digest.
func (d *Dataset) ToleranceDigest() string {
	h := fnv.New64a()
	var buf [8]byte
	for _, tol := range d.Tolerances {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(tol))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
