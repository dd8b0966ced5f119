package value

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestTolerance(t *testing.T) {
	// Eq. 3: alpha * median.
	vals := []float64{10, 20, 30, 40, 50}
	if got := Tolerance(Number, vals, 0.01); got != 0.3 {
		t.Errorf("Tolerance = %v, want 0.3", got)
	}
	if got := Tolerance(Time, nil, 0.01); got != DefaultTimeToleranceMinutes {
		t.Errorf("time tolerance = %v", got)
	}
	if got := Tolerance(Text, vals, 0.01); got != 0 {
		t.Errorf("text tolerance = %v", got)
	}
	if got := Tolerance(Number, nil, 0.01); got != 0 {
		t.Errorf("empty tolerance = %v", got)
	}
	// Median-zero fallback uses mean absolute value.
	centered := []float64{-2, -1, 0, 1, 2}
	if got := Tolerance(Number, centered, 0.01); got <= 0 {
		t.Errorf("centered tolerance should fall back to mean abs, got %v", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Median must not reorder its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Median mutated its input")
	}
}

func TestBucketizeNumeric(t *testing.T) {
	vals := []Value{
		Num(100), Num(100.2), Num(100.1), // dominant cluster
		Num(105), Num(105.3), // second cluster
		Num(250), // outlier
	}
	buckets := Bucketize(vals, 1.0)
	if len(buckets) != 3 {
		t.Fatalf("got %d buckets, want 3", len(buckets))
	}
	if len(buckets[0].Members) != 3 {
		t.Errorf("dominant bucket size %d, want 3", len(buckets[0].Members))
	}
	if buckets[0].Rep.Num != 100 {
		t.Errorf("dominant rep %v, want 100 (most frequent exact, first seen)", buckets[0].Rep.Num)
	}
	if len(buckets[1].Members) != 2 || len(buckets[2].Members) != 1 {
		t.Errorf("bucket sizes %d/%d, want 2/1", len(buckets[1].Members), len(buckets[2].Members))
	}
}

func TestBucketizeDominantCentering(t *testing.T) {
	// The dominant exact value anchors the buckets: values within tau/2 of
	// the anchor share its bucket.
	vals := []Value{Num(10), Num(10), Num(10.4), Num(10.6)}
	buckets := Bucketize(vals, 1.0)
	if len(buckets[0].Members) != 3 {
		t.Errorf("anchor bucket size %d, want 3 (10, 10, 10.4)", len(buckets[0].Members))
	}
	if len(buckets) != 2 {
		t.Errorf("got %d buckets, want 2", len(buckets))
	}
}

func TestBucketizeText(t *testing.T) {
	vals := []Value{Str("B22"), Str("B22"), Str("C1"), Str("B22"), Str("C1"), Str("D4")}
	buckets := Bucketize(vals, 0)
	if len(buckets) != 3 {
		t.Fatalf("got %d buckets, want 3", len(buckets))
	}
	if buckets[0].Rep.Text != "B22" || len(buckets[0].Members) != 3 {
		t.Errorf("dominant text bucket = %v x%d", buckets[0].Rep.Text, len(buckets[0].Members))
	}
}

func TestBucketizeEmpty(t *testing.T) {
	if got := Bucketize(nil, 1); got != nil {
		t.Errorf("Bucketize(nil) = %v", got)
	}
}

func TestBucketizeSingle(t *testing.T) {
	buckets := Bucketize([]Value{Num(5)}, 1)
	if len(buckets) != 1 || len(buckets[0].Members) != 1 {
		t.Fatalf("single value should give one singleton bucket: %+v", buckets)
	}
}

func TestBucketizeZeroTolerance(t *testing.T) {
	vals := []Value{Num(1), Num(1), Num(1.0000001)}
	buckets := Bucketize(vals, 0)
	if len(buckets) != 2 {
		t.Errorf("zero tolerance should split exact values: %d buckets", len(buckets))
	}
}

func TestRepresentativeKeepsFinestGran(t *testing.T) {
	vals := []Value{NumGran(100, 1), NumGran(100, 0.01), NumGran(100, 1)}
	buckets := Bucketize(vals, 1)
	if buckets[0].Rep.Gran != 0.01 {
		t.Errorf("representative granularity = %v, want the finest 0.01", buckets[0].Rep.Gran)
	}
}

// Properties of bucketing: every input lands in exactly one bucket, buckets
// are ordered by size, and the dominant exact value is in bucket 0.
func TestBucketizeProperties(t *testing.T) {
	f := func(seeds []uint16, tolRaw uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 64 {
			seeds = seeds[:64]
		}
		tol := 1 + float64(tolRaw%50)
		vals := make([]Value, len(seeds))
		for i, s := range seeds {
			vals[i] = Num(float64(s % 1000))
		}
		buckets := Bucketize(vals, tol)

		seen := make(map[int]bool)
		total := 0
		for bi, b := range buckets {
			if len(b.Members) == 0 {
				return false
			}
			if bi > 0 && len(buckets[bi-1].Members) < len(b.Members) {
				return false // not sorted by size
			}
			for _, m := range b.Members {
				if seen[m] {
					return false // member in two buckets
				}
				seen[m] = true
				total++
				// Every member is within tol of its bucket's representative
				// anchor band (tolerance-width buckets mean a member may be
				// up to tol away from the representative).
				if math.Abs(vals[m].Num-b.Rep.Num) > tol {
					return false
				}
			}
		}
		return total == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refBucketize is the map-based kernel Bucketize used to be, kept as the
// reference the sort-based kernel must match exactly: bucket order, member
// order and representative bits. It panics on a NaN number.
func refBucketize(values []Value, tol float64) []Bucket {
	if len(values) == 0 {
		return nil
	}
	if values[0].Kind == Text || tol <= 0 {
		return refBucketizeExact(values)
	}

	// Pass 1: find v0, the single most frequent exact value.
	type group struct {
		first int
		count int
	}
	exact := make(map[float64]*group)
	order := make([]float64, 0, len(values))
	for i, v := range values {
		g := exact[v.Num]
		if g == nil {
			g = &group{first: i}
			exact[v.Num] = g
			order = append(order, v.Num)
		}
		g.count++
	}
	v0 := order[0]
	best := exact[v0]
	for _, x := range order {
		g := exact[x]
		if g.count > best.count || (g.count == best.count && g.first < best.first) {
			v0, best = x, g
		}
	}

	// Pass 2: assign every value to the bucket index round((x-v0)/tau).
	byKey := make(map[int64]*Bucket)
	var keys []int64
	for i, v := range values {
		k := int64(math.Round((v.Num - v0) / tol))
		b := byKey[k]
		if b == nil {
			b = &Bucket{}
			byKey[k] = b
			keys = append(keys, k)
		}
		b.Members = append(b.Members, i)
	}

	buckets := make([]Bucket, 0, len(keys))
	for _, k := range keys {
		b := byKey[k]
		b.Rep = refRepresentative(values, b.Members)
		buckets = append(buckets, *b)
	}
	refSortBuckets(buckets)
	return buckets
}

func refBucketizeExact(values []Value) []Bucket {
	type keyed struct {
		kind Kind
		num  float64
		text string
	}
	byKey := make(map[keyed]*Bucket)
	var orderKeys []keyed
	for i, v := range values {
		k := keyed{v.Kind, v.Num, v.Text}
		b := byKey[k]
		if b == nil {
			b = &Bucket{Rep: v}
			byKey[k] = b
			orderKeys = append(orderKeys, k)
		}
		b.Members = append(b.Members, i)
	}
	buckets := make([]Bucket, 0, len(orderKeys))
	for _, k := range orderKeys {
		buckets = append(buckets, *byKey[k])
	}
	refSortBuckets(buckets)
	return buckets
}

// refRepresentative picks the most frequent exact value among the bucket
// members, breaking ties toward the earliest member, and keeps the finest
// granularity observed for it.
func refRepresentative(values []Value, members []int) Value {
	type tally struct {
		first int
		count int
		val   Value
	}
	byNum := make(map[float64]*tally)
	var order []float64
	for _, i := range members {
		v := values[i]
		t := byNum[v.Num]
		if t == nil {
			t = &tally{first: i, val: v}
			byNum[v.Num] = t
			order = append(order, v.Num)
		}
		t.count++
		if v.Gran < t.val.Gran {
			t.val.Gran = v.Gran
		}
	}
	bestKey := order[0]
	for _, k := range order {
		t := byNum[k]
		b := byNum[bestKey]
		if t.count > b.count || (t.count == b.count && t.first < b.first) {
			bestKey = k
		}
	}
	return byNum[bestKey].val
}

func refSortBuckets(buckets []Bucket) {
	sort.SliceStable(buckets, func(i, j int) bool {
		if len(buckets[i].Members) != len(buckets[j].Members) {
			return len(buckets[i].Members) > len(buckets[j].Members)
		}
		return buckets[i].Members[0] < buckets[j].Members[0]
	})
}

// refPanics reports whether the reference cannot bucketize values: a NaN
// number is a map key that never finds its own entry.
func refPanics(values []Value) bool {
	for _, v := range values {
		if math.IsNaN(v.Num) {
			return true
		}
	}
	return false
}

// sameBucketing compares two bucketings exactly: bucket order, member
// order, and every representative field bit for bit (the sign of zero
// included).
func sameBucketing(got, want []Bucket) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d buckets, want %d", len(got), len(want))
	}
	for b := range got {
		g, w := got[b].Rep, want[b].Rep
		if g.Kind != w.Kind || g.Text != w.Text ||
			math.Float64bits(g.Num) != math.Float64bits(w.Num) ||
			math.Float64bits(g.Gran) != math.Float64bits(w.Gran) {
			return fmt.Sprintf("bucket %d rep %#v, want %#v", b, g, w)
		}
		if !slices.Equal(got[b].Members, want[b].Members) {
			return fmt.Sprintf("bucket %d members %v, want %v", b, got[b].Members, want[b].Members)
		}
	}
	return ""
}

// checkAgainstReference bucketizes values with the package function and
// with the reused kernel k, and compares both with the reference.
func checkAgainstReference(t *testing.T, k *Bucketer, values []Value, tol float64) {
	t.Helper()
	got := Bucketize(values, tol)
	nb := k.Bucketize(values, tol)
	reused := make([]Bucket, nb)
	for b := range reused {
		reused[b].Rep = k.Rep(b)
		for _, m := range k.Members(b) {
			reused[b].Members = append(reused[b].Members, int(m))
		}
	}
	if diff := sameBucketing(reused, got); diff != "" {
		t.Fatalf("reused kernel differs from a fresh one on %v tol %v: %s", values, tol, diff)
	}
	if refPanics(values) {
		return
	}
	if diff := sameBucketing(got, refBucketize(values, tol)); diff != "" {
		t.Fatalf("Bucketize(%v, %v): %s", values, tol, diff)
	}
}

// decodeValues turns fuzz bytes into a tolerance and values drawn from
// small pools, so that exact ties, both zeros, granularity mixes, text,
// non-finite numbers and degenerate tolerances all occur often.
func decodeValues(data []byte) ([]Value, float64) {
	if len(data) == 0 {
		return nil, 0
	}
	tols := []float64{0, -1, 0.5, 1, 3, 1e-300, math.NaN(), 1e300}
	tol := tols[int(data[0])%len(tols)]
	grans := []float64{0, 0.01, 1, 10, math.NaN()}
	texts := []string{"A", "B", "A B", ""}
	var vals []Value
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		a, g, c := data[0], data[1], data[2]
		var x float64
		switch a % 16 {
		case 12:
			x = math.Inf(1)
		case 13:
			x = math.Inf(-1)
		case 14:
			x = 1e308
		case 15:
			x = math.NaN()
		default:
			x = float64(a%16) * 0.75
		}
		if c&1 == 1 {
			x = -x
		}
		v := Value{Kind: Number, Num: x, Gran: grans[int(g)%len(grans)]}
		switch (c >> 1) % 4 {
		case 2:
			v.Kind = Time
		case 3:
			v.Kind, v.Text = Text, texts[int(c>>3)%len(texts)]
		}
		vals = append(vals, v)
	}
	return vals, tol
}

// TestBucketizeMatchesReference compares the kernel with the map-based
// reference on random items, reusing one Bucketer across all of them.
func TestBucketizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var k Bucketer
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	for c := 0; c < cases; c++ {
		data := make([]byte, 1+3*rng.Intn(70))
		rng.Read(data)
		if c%2 == 0 {
			// Half the cases stay finite and numeric with a usable
			// tolerance: the common shape of a real item.
			data[0] = byte(2 + rng.Intn(3))
			for j := 1; j < len(data); j += 3 {
				data[j] %= 12
				data[j+2] &^= 6
			}
		}
		vals, tol := decodeValues(data)
		checkAgainstReference(t, &k, vals, tol)
	}
}

// TestBucketizeEdgeCases pins the rules the reference defines by example.
func TestBucketizeEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		vals []Value
		tol  float64
	}{
		{"first zero negative", []Value{Num(negZero), Num(0), Num(0.1)}, 1},
		{"first zero positive", []Value{Num(0), Num(negZero), Num(negZero)}, 1},
		{"exact zeros", []Value{Num(negZero), Num(0)}, 0},
		{"count tie to first index", []Value{Num(5), Num(9), Num(9), Num(5)}, 1},
		{"rep tie inside bucket", []Value{Num(10.2), Num(10), Num(10), Num(10.2)}, 1},
		{"mixed gran", []Value{NumGran(7, 1), NumGran(7, 0.01), NumGran(7.2, 0.1), NumGran(7, 0.1)}, 1},
		{"text", []Value{Str("b22"), Str("B 22"), Str("c1"), Str("B22")}, 5},
		{"negative tolerance", []Value{Num(1), Num(1.5), Num(1)}, -1},
		{"zero tolerance keeps first gran", []Value{NumGran(3, 1), NumGran(3, 0.1)}, 0},
		{"single", []Value{Minutes(600)}, 10},
	}
	// Both sides of the insertion-sort cutoff: two values tie on count in
	// an A B B A pattern, so only the first occurrence (not the last) puts
	// A first.
	for _, n := range []int{insertionMax, insertionMax + 1} {
		vals := make([]Value, n)
		for i := range vals {
			switch {
			case i >= insertionMax:
				vals[i] = Num(30)
			case i%4 == 0 || i%4 == 3:
				vals[i] = Num(10)
			default:
				vals[i] = Num(20)
			}
		}
		cases = append(cases, struct {
			name string
			vals []Value
			tol  float64
		}{fmt.Sprintf("%d values", n), vals, 1.5})
	}
	var k Bucketer
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkAgainstReference(t, &k, c.vals, c.tol) })
	}
	// The representative carries the sign of its first occurrence.
	if b := Bucketize(cases[0].vals, 1); !math.Signbit(b[0].Rep.Num) {
		t.Error("representative lost the first occurrence's negative zero")
	}
}

// TestBucketerAllocationFree: once warm, the kernel allocates nothing.
func TestBucketerAllocationFree(t *testing.T) {
	vals := []Value{Num(10), Num(10.2), Num(14), Num(10), NumGran(14, 1), Num(30)}
	var k Bucketer
	k.Bucketize(vals, 1)
	if a := testing.AllocsPerRun(20, func() { k.Bucketize(vals, 1) }); a != 0 {
		t.Errorf("warm Bucketer allocated %.1f objects per call, want 0", a)
	}
}

// FuzzBucketize checks the kernel against the reference on arbitrary
// items (see decodeValues); the committed corpus lives in
// testdata/fuzz/FuzzBucketize.
func FuzzBucketize(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 1, 0, 1, 2, 1, 0})
	f.Add([]byte{0, 1, 2, 6, 1, 2, 7, 4, 0, 6})
	var k Bucketer
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+3*256 {
			return
		}
		vals, tol := decodeValues(data)
		checkAgainstReference(t, &k, vals, tol)
	})
}
