package quality

import (
	"truthdiscovery/internal/model"
)

// RedundancyReport holds the Section 3.1 redundancy measures for one
// snapshot: per-object and per-item redundancy (the fraction of sources
// providing the object/item — Figures 2 and 3), and per-source coverage.
type RedundancyReport struct {
	// ObjectRedundancy[i] is the fraction of sources providing object i.
	ObjectRedundancy []float64
	// ItemRedundancy[i] is the fraction of sources providing item i
	// (considered attributes only; the universe is the item table).
	ItemRedundancy []float64
	// SourceObjectCoverage[s] is the fraction of objects source s provides.
	SourceObjectCoverage []float64
	// SourceItemCoverage[s] is the fraction of items source s provides.
	SourceItemCoverage []float64
	// MeanItemRedundancy is the average of ItemRedundancy (the paper's
	// "on average each data item has a redundancy of 66%/32%").
	MeanItemRedundancy float64
}

// Redundancy computes the redundancy report over the given source set
// (nil = all sources in the dataset).
func Redundancy(ds *model.Dataset, snap *model.Snapshot, sources []model.SourceID) RedundancyReport {
	include := make([]bool, len(ds.Sources))
	n := 0
	if sources == nil {
		for i := range include {
			include[i] = true
		}
		n = len(include)
	} else {
		for _, s := range sources {
			include[s] = true
		}
		n = len(sources)
	}

	objProviders := make(map[[2]int32]struct{})
	objCount := make([]int, len(ds.Objects))
	srcObj := make([]int, len(ds.Sources))
	itemCount := make([]int, len(ds.Items))
	srcItem := make([]int, len(ds.Sources))

	for _, c := range snap.Claims {
		if !include[c.Source] {
			continue
		}
		obj := ds.Items[c.Item].Object
		key := [2]int32{int32(c.Source), int32(obj)}
		if _, seen := objProviders[key]; !seen {
			objProviders[key] = struct{}{}
			objCount[obj]++
			srcObj[c.Source]++
		}
		itemCount[c.Item]++
		srcItem[c.Source]++
	}

	r := RedundancyReport{
		ObjectRedundancy:     make([]float64, len(ds.Objects)),
		ItemRedundancy:       make([]float64, len(ds.Items)),
		SourceObjectCoverage: make([]float64, len(ds.Sources)),
		SourceItemCoverage:   make([]float64, len(ds.Sources)),
	}
	for i, c := range objCount {
		r.ObjectRedundancy[i] = float64(c) / float64(n)
	}
	var total float64
	for i, c := range itemCount {
		r.ItemRedundancy[i] = float64(c) / float64(n)
		total += r.ItemRedundancy[i]
	}
	if len(ds.Items) > 0 {
		r.MeanItemRedundancy = total / float64(len(ds.Items))
	}
	for s := range ds.Sources {
		if !include[s] {
			continue
		}
		r.SourceObjectCoverage[s] = float64(srcObj[s]) / float64(len(ds.Objects))
		r.SourceItemCoverage[s] = float64(srcItem[s]) / float64(len(ds.Items))
	}
	return r
}

// AttributeProviderCounts returns, for every global attribute, the number of
// sources whose schema includes it (Figure 1's x-axis data).
func AttributeProviderCounts(ds *model.Dataset) []int {
	counts := make([]int, len(ds.Attrs))
	for _, s := range ds.Sources {
		for _, a := range s.Schema {
			counts[a]++
		}
	}
	return counts
}

// AttributeCoverageCurve returns the fraction of global attributes provided
// by more than each threshold number of sources (Figure 1's series).
func AttributeCoverageCurve(ds *model.Dataset, thresholds []int) []float64 {
	counts := AttributeProviderCounts(ds)
	out := make([]float64, len(thresholds))
	if len(counts) == 0 {
		return out
	}
	for i, t := range thresholds {
		n := 0
		for _, c := range counts {
			if c > t {
				n++
			}
		}
		out[i] = float64(n) / float64(len(counts))
	}
	return out
}
