package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEntropy(t *testing.T) {
	if got := Entropy([]int{10}); got != 0 {
		t.Errorf("single value entropy = %v, want 0", got)
	}
	if got := Entropy([]int{5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("uniform two-value entropy = %v, want 1", got)
	}
	if got := Entropy([]int{1, 1, 1, 1}); math.Abs(got-2) > 1e-12 {
		t.Errorf("uniform four-value entropy = %v, want 2", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Errorf("empty entropy = %v", got)
	}
	if got := Entropy([]int{0, 7, 0}); got != 0 {
		t.Errorf("zeros must be ignored, got %v", got)
	}
	skewed := Entropy([]int{9, 1})
	if !(skewed > 0 && skewed < 1) {
		t.Errorf("skewed entropy = %v, want within (0,1)", skewed)
	}
}

// Properties from information theory: entropy is non-negative and maximal
// for the uniform distribution over the same support size.
func TestEntropyProperties(t *testing.T) {
	f := func(counts []uint8) bool {
		in := make([]int, 0, len(counts))
		for _, c := range counts {
			if c > 0 {
				in = append(in, int(c))
			}
		}
		if len(in) == 0 || len(in) > 32 {
			return true
		}
		e := Entropy(in)
		if e < 0 {
			return false
		}
		uniform := make([]int, len(in))
		for i := range uniform {
			uniform[i] = 1
		}
		return e <= Entropy(uniform)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelativeDeviation(t *testing.T) {
	// Values {100, 150}, dominant 100: sqrt((0 + .25)/2) = .3535...
	got := RelativeDeviation([]float64{100, 150}, 100)
	want := math.Sqrt(0.125)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RelativeDeviation = %v, want %v", got, want)
	}
	if RelativeDeviation(nil, 100) != 0 {
		t.Error("empty deviation should be 0")
	}
	if RelativeDeviation([]float64{1, 2}, 0) != 0 {
		t.Error("zero dominant should be guarded")
	}
}

func TestAbsoluteDeviation(t *testing.T) {
	got := AbsoluteDeviation([]float64{600, 615}, 600)
	want := math.Sqrt(112.5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AbsoluteDeviation = %v, want %v", got, want)
	}
}

func TestDominanceFactor(t *testing.T) {
	if got := DominanceFactor(3, 10); got != 0.3 {
		t.Errorf("DominanceFactor = %v", got)
	}
	if got := DominanceFactor(1, 0); got != 0 {
		t.Errorf("zero providers should give 0, got %v", got)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty mean/stddev should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty Min/Max should be 0")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.05, 0.1, 0.15, 0.95, 2.0}
	counts := Histogram(xs, []float64{0.1, 0.2, 1.0})
	// Bins: [<0.1), [0.1,0.2), [0.2,1.0), [1.0,).
	want := []int{1, 2, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("Histogram bin %d = %d, want %d (%v)", i, counts[i], want[i], counts)
		}
	}
}

// Property: histogram counts always total the input size.
func TestHistogramTotal(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		counts := Histogram(clean, []float64{0, 1, 10})
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == len(clean)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionAtLeast(t *testing.T) {
	xs := []float64{0.1, 0.5, 0.9}
	got := FractionAtLeast(xs, []float64{0.5})
	if math.Abs(got[0]-2.0/3) > 1e-12 {
		t.Errorf("FractionAtLeast = %v, want 2/3", got[0])
	}
}
