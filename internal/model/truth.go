package model

import (
	"truthdiscovery/internal/value"
)

// TruthTable maps data items to their (believed) true values. It is used
// both for the generator's exhaustive ground truth and for the gold
// standards built by authority voting, which — as the paper stresses — can
// themselves contain imperfect values.
type TruthTable struct {
	vals map[ItemID]value.Value
}

// NewTruthTable returns an empty truth table.
func NewTruthTable() *TruthTable {
	return &TruthTable{vals: make(map[ItemID]value.Value)}
}

// Set records the true value for an item.
func (t *TruthTable) Set(item ItemID, v value.Value) { t.vals[item] = v }

// Get returns the true value for an item and whether one is recorded.
func (t *TruthTable) Get(item ItemID) (value.Value, bool) {
	v, ok := t.vals[item]
	return v, ok
}

// Len returns the number of items with recorded truths.
func (t *TruthTable) Len() int { return len(t.vals) }

// Items returns the item IDs with recorded truths in unspecified order.
func (t *TruthTable) Items() []ItemID {
	out := make([]ItemID, 0, len(t.vals))
	for id := range t.vals {
		out = append(out, id)
	}
	return out
}

// SourceAccuracy computes the accuracy of each source on one snapshot with
// respect to this truth table: the fraction of its claims on recorded items
// that are consistent with the truth. Sources with no claims on recorded
// items get accuracy NaN-free 0 and ok=false in the coverage slice.
//
// The returned coverage slice holds, per source, the fraction of recorded
// items the source provides (the paper's item-level coverage of Table 4).
func (t *TruthTable) SourceAccuracy(d *Dataset, s *Snapshot) (accuracy, coverage []float64) {
	right := make([]int, len(d.Sources))
	total := make([]int, len(d.Sources))
	for _, c := range s.Claims {
		truth, ok := t.vals[c.Item]
		if !ok {
			continue
		}
		total[c.Source]++
		if value.Equal(truth, c.Val, d.Tolerance(d.Items[c.Item].Attr)) {
			right[c.Source]++
		}
	}
	accuracy = make([]float64, len(d.Sources))
	coverage = make([]float64, len(d.Sources))
	n := t.Len()
	for i := range d.Sources {
		if total[i] > 0 {
			accuracy[i] = float64(right[i]) / float64(total[i])
		}
		if n > 0 {
			coverage[i] = float64(total[i]) / float64(n)
		}
	}
	return accuracy, coverage
}

// PerAttrAccuracy computes per-(source, attribute) accuracy on one snapshot:
// out[source][attr]. Pairs with no claims default to the source's overall
// accuracy, passed in fallback (so per-attribute fusion methods degrade
// gracefully on sparse attributes).
func (t *TruthTable) PerAttrAccuracy(d *Dataset, s *Snapshot, fallback []float64) [][]float64 {
	numA := len(d.Attrs)
	right := make([][]int, len(d.Sources))
	total := make([][]int, len(d.Sources))
	for i := range d.Sources {
		right[i] = make([]int, numA)
		total[i] = make([]int, numA)
	}
	for _, c := range s.Claims {
		truth, ok := t.vals[c.Item]
		if !ok {
			continue
		}
		a := d.Items[c.Item].Attr
		total[c.Source][a]++
		if value.Equal(truth, c.Val, d.Tolerance(a)) {
			right[c.Source][a]++
		}
	}
	out := make([][]float64, len(d.Sources))
	for si := range d.Sources {
		out[si] = make([]float64, numA)
		for a := 0; a < numA; a++ {
			if total[si][a] > 0 {
				out[si][a] = float64(right[si][a]) / float64(total[si][a])
			} else if fallback != nil {
				out[si][a] = fallback[si]
			}
		}
	}
	return out
}
