package quality

import (
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// GroupStats reproduces one row of the paper's Table 5 for a group of
// sources with (potential) copying.
type GroupStats struct {
	Remark string
	Size   int
	// SchemaSim is the average pairwise Jaccard similarity of the members'
	// provided attribute sets.
	SchemaSim float64
	// ObjectSim is the average pairwise Jaccard similarity of the members'
	// provided object sets.
	ObjectSim float64
	// ValueSim is the average, over member pairs, of the fraction of shared
	// data items on which the pair provides the same value (within
	// tolerance).
	ValueSim float64
	// AvgAccuracy is the members' mean accuracy against the gold standard.
	AvgAccuracy float64
}

// Group names a set of sources suspected (or known) to share data.
type Group struct {
	Remark  string
	Members []model.SourceID
}

// CopyingStats computes Table 5's commonality measures for each group on a
// snapshot. accuracy is the per-source accuracy (typically against the gold
// standard).
func CopyingStats(ds *model.Dataset, snap *model.Snapshot,
	groups []Group, accuracy []float64) []GroupStats {

	out := make([]GroupStats, 0, len(groups))
	for _, grp := range groups {
		gs := GroupStats{Remark: grp.Remark, Size: len(grp.Members)}
		members := grp.Members

		// Schema similarity over global attribute sets.
		schemas := make([]map[model.AttrID]bool, len(members))
		for i, m := range members {
			set := make(map[model.AttrID]bool)
			for _, a := range ds.Sources[m].Schema {
				set[a] = true
			}
			schemas[i] = set
		}

		// Object sets and per-item values per member.
		objs := make([]map[model.ObjectID]bool, len(members))
		valsByItem := make([]map[model.ItemID]value.Value, len(members))
		memberIndex := make(map[model.SourceID]int, len(members))
		for i, m := range members {
			objs[i] = make(map[model.ObjectID]bool)
			valsByItem[i] = make(map[model.ItemID]value.Value)
			memberIndex[m] = i
		}
		for _, c := range snap.Claims {
			i, ok := memberIndex[c.Source]
			if !ok {
				continue
			}
			objs[i][ds.Items[c.Item].Object] = true
			valsByItem[i][c.Item] = c.Val
		}

		pairs := 0
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				pairs++
				gs.SchemaSim += jaccardAttr(schemas[i], schemas[j])
				gs.ObjectSim += jaccardObj(objs[i], objs[j])
				gs.ValueSim += valueCommonality(ds, valsByItem[i], valsByItem[j])
			}
		}
		if pairs > 0 {
			gs.SchemaSim /= float64(pairs)
			gs.ObjectSim /= float64(pairs)
			gs.ValueSim /= float64(pairs)
		}
		for _, m := range members {
			gs.AvgAccuracy += accuracy[m]
		}
		gs.AvgAccuracy /= float64(len(members))
		out = append(out, gs)
	}
	return out
}

func jaccardAttr(a, b map[model.AttrID]bool) float64 {
	inter, union := 0, 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union = len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func jaccardObj(a, b map[model.ObjectID]bool) float64 {
	inter, union := 0, 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union = len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func valueCommonality(ds *model.Dataset, a, b map[model.ItemID]value.Value) float64 {
	shared, same := 0, 0
	for item, va := range a {
		vb, ok := b[item]
		if !ok {
			continue
		}
		shared++
		if value.Equal(va, vb, ds.Tolerance(ds.Items[item].Attr)) {
			same++
		}
	}
	if shared == 0 {
		return 0
	}
	return float64(same) / float64(shared)
}
