package fusion

import (
	"reflect"
	"testing"
	"unsafe"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// The flat-arena layout exists so the round loops are allocation-free
// once warm: every buffer a round touches is allocated before the first
// round and reused. These tests pin that property down with
// testing.AllocsPerRun, and pin the arena layout itself with a
// field-for-field comparison against a jagged per-item construction.

// allocProblem builds a moderately sized problem on the simulated churn
// world (all aux structures, so every method can run).
func allocProblem(t *testing.T) *Problem {
	t.Helper()
	ds, snaps := incWorld(t, 3, 1)
	return Build(ds, snaps[0], nil, BuildOptions{NeedSimilarity: true, NeedFormat: true})
}

// warmRoundAllocs returns the per-round allocation rate of the warm
// iteration: the difference in Run's allocation count between a 12-round
// and a 2-round serial run, divided by the extra rounds. Zero means the
// steady-state iteration allocates nothing after its first rounds.
// Epsilon is driven (effectively) to zero so the iteration cannot
// converge early.
func warmRoundAllocs(t *testing.T, m Method, p *Problem) float64 {
	t.Helper()
	opts := func(rounds int) Options {
		return Options{Parallelism: 1, MaxRounds: rounds, Epsilon: 1e-300}
	}
	// Some configs hit an exact floating-point fixpoint before 12 rounds
	// (clamped trust entries stop moving); measure up to whatever round
	// count actually executes.
	hi := m.Run(p, opts(12)).Rounds
	if hi < 4 {
		t.Fatalf("%s: exact fixpoint after %d rounds; too few to differentiate", m.Name(), hi)
	}
	short := testing.AllocsPerRun(5, func() { m.Run(p, opts(2)) })
	long := testing.AllocsPerRun(5, func() { m.Run(p, opts(hi)) })
	return (long - short) / float64(hi-2)
}

// TestWarmRoundsAllocationFree asserts the tentpole property for every
// iterative method of the roster: ten extra warm rounds on the serial
// path allocate zero bytes. (AccuCopy is excluded — its detection rounds
// rebuild the copy-weight structures until the freeze — and Vote has no
// rounds; see TestVoteAllocationProfile.)
func TestWarmRoundsAllocationFree(t *testing.T) {
	p := allocProblem(t)
	for _, name := range []string{
		"Hub", "AvgLog", "Invest", "PooledInvest",
		"Cosine", "2-Estimates", "3-Estimates",
		"TruthFinder", "AccuPr", "PopAccu", "AccuSim",
		"AccuFormat", "AccuSimAttr", "AccuFormatAttr",
	} {
		m, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown method %s", name)
		}
		// A strict zero would be ideal, but AllocsPerRun occasionally
		// reads an object or two of runtime jitter across a whole run; a
		// genuine per-round allocation shows up as a rate >= 1.
		if rate := warmRoundAllocs(t, m, p); rate >= 0.5 {
			t.Errorf("%s: warm rounds allocate %.2f objects/round, want 0", name, rate)
		}
	}
}

// TestTableRefillsAllocationFree pins the per-round score-table refills
// (tables.go) at zero allocations: the tables are per-run scratch,
// refilled in place every round, so the warm-round zero-alloc property
// survives the table-driven kernels.
func TestTableRefillsAllocationFree(t *testing.T) {
	p := allocProblem(t)
	n := len(p.SourceIDs)
	opts := Options{}.withDefaults()

	trust := initTrust(n, nil, 0.8)
	at := &accuTrust{global: trust}
	tab := newAccuTables(n, 0, opts, accuConfig{name: "AccuPr"})
	if a := testing.AllocsPerRun(10, func() { tab.update(at) }); a != 0 {
		t.Errorf("accuTables.update (global) allocated %.1f objects per round, want 0", a)
	}

	byKey := make([][]float64, n)
	for s := range byKey {
		byKey[s] = []float64{0.8, 0.7, 0.9}
	}
	kat := &accuTrust{keyed: true, byKey: byKey}
	ktab := newAccuTables(n, 3, opts, accuConfig{name: "AccuSimAttr", perAttr: true})
	if a := testing.AllocsPerRun(10, func() { ktab.update(kat) }); a != 0 {
		t.Errorf("accuTables.update (keyed) allocated %.1f objects per round, want 0", a)
	}

	dst := make([]float64, n)
	if a := testing.AllocsPerRun(10, func() { tfLogTable(dst, trust) }); a != 0 {
		t.Errorf("tfLogTable allocated %.1f objects per round, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { cosineCubeTable(dst, trust) }); a != 0 {
		t.Errorf("cosineCubeTable allocated %.1f objects per round, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { investShares(dst, trust, p.ClaimsPerSource) }); a != 0 {
		t.Errorf("investShares allocated %.1f objects per round, want 0", a)
	}
	logc := logClaimCounts(p.ClaimsPerSource)
	mass := make([]float64, n)
	if a := testing.AllocsPerRun(10, func() { avgLogTail(p.ClaimsPerSource, logc, mass, dst) }); a != 0 {
		t.Errorf("avgLogTail allocated %.1f objects per round, want 0", a)
	}
}

// TestVoteAllocationProfile: VOTE's warm path is the incremental
// RunItems, which must not allocate at all; its full Run allocates only
// the chosen vector and the Result.
func TestVoteAllocationProfile(t *testing.T) {
	p := allocProblem(t)
	idx := make([]int, len(p.Items))
	for i := range idx {
		idx[i] = i
	}
	chosen := make([]int32, len(p.Items))
	opts := Options{Parallelism: 1}
	if a := testing.AllocsPerRun(10, func() { Vote{}.RunItems(p, opts, idx, chosen) }); a != 0 {
		t.Errorf("Vote.RunItems allocated %.1f objects per run, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { Vote{}.Run(p, opts) }); a > 2 {
		t.Errorf("Vote.Run allocated %.1f objects per run, want <= 2 (chosen + Result)", a)
	}
}

// jaggedProblem assembles the problem Build must produce the old way:
// item by item from value.Bucketize, with fresh allocations for every
// bucket and source list and per-item aux structures.
func jaggedProblem(ds *model.Dataset, snap *model.Snapshot, opts BuildOptions) *Problem {
	p := &Problem{SourceIDs: DefaultRoster(ds), NumAttrs: len(ds.Attrs)}
	for id := 0; id < snap.NumItems(); id++ {
		claims := snap.ItemClaims(model.ItemID(id))
		if len(claims) == 0 {
			continue
		}
		vals := make([]value.Value, len(claims))
		for i := range claims {
			vals[i] = claims[i].Val
		}
		attr := ds.Items[id].Attr
		it := ProblemItem{Item: model.ItemID(id), Attr: attr, Tol: ds.Tolerance(attr), Providers: len(claims)}
		for _, b := range value.Bucketize(vals, it.Tol) {
			srcs := make([]int32, len(b.Members))
			for j, m := range b.Members {
				srcs[j] = int32(claims[m].Source)
			}
			it.Buckets = append(it.Buckets, Bucket{Rep: b.Rep, Sources: srcs})
		}
		p.Items = append(p.Items, it)
		if opts.NeedSimilarity {
			n := len(it.Buckets)
			sim := make([]float32, n*n)
			fillSim(sim, &it)
			p.Sim = append(p.Sim, sim)
		}
		if opts.NeedFormat {
			p.Format = append(p.Format, formatFor(&it))
		}
	}
	countClaims(p)
	assignCats(p, ds)
	indexBuckets(p)
	return p
}

// assertContiguous asserts the arena layout: consecutive items' bucket
// views sit back to back in one flat arena, and so do the per-bucket
// source views and the similarity matrices — which no jagged or
// partially maintained problem does.
func assertContiguous(t *testing.T, ctx string, p *Problem) {
	t.Helper()
	for i := 0; i+1 < len(p.Items); i++ {
		a, b := p.Items[i].Buckets, p.Items[i+1].Buckets
		end := uintptr(unsafe.Pointer(&a[0])) + uintptr(len(a))*unsafe.Sizeof(a[0])
		if uintptr(unsafe.Pointer(&b[0])) != end {
			t.Fatalf("%s: bucket views of items %d and %d are not contiguous", ctx, i, i+1)
		}
	}
	var prevEnd uintptr
	for i := range p.Items {
		for _, bk := range p.Items[i].Buckets {
			start := uintptr(unsafe.Pointer(&bk.Sources[0]))
			if prevEnd != 0 && start != prevEnd {
				t.Fatalf("%s: source views are not contiguous in the int32 arena (item %d)", ctx, i)
			}
			prevEnd = start + uintptr(len(bk.Sources))*unsafe.Sizeof(bk.Sources[0])
		}
	}
	for i := 0; i+1 < len(p.Sim); i++ {
		a, b := p.Sim[i], p.Sim[i+1]
		end := uintptr(unsafe.Pointer(&a[0])) + uintptr(len(a))*unsafe.Sizeof(a[0])
		if uintptr(unsafe.Pointer(&b[0])) != end {
			t.Fatalf("%s: similarity views of items %d and %d are not contiguous", ctx, i, i+1)
		}
	}
}

// TestBuildArenaMatchesJagged: Build's arena-laid problem must equal the
// jagged, per-item assembly field for field, and its views must actually
// be contiguous in one arena.
func TestBuildArenaMatchesJagged(t *testing.T) {
	ds, snaps := incWorld(t, 5, 1)
	opts := BuildOptions{NeedSimilarity: true, NeedFormat: true}
	got := Build(ds, snaps[0], nil, opts)
	want := jaggedProblem(ds, snaps[0], opts)

	sameProblem(t, "arena vs jagged", got, want)
	if !reflect.DeepEqual(got.BucketOff, want.BucketOff) {
		t.Fatal("BucketOff differs between arena and jagged builds")
	}
	if got.maxBuckets != want.maxBuckets {
		t.Fatalf("maxBuckets %d vs %d", got.maxBuckets, want.maxBuckets)
	}
	assertContiguous(t, "Build", got)

	// The vote space spans exactly the bucket count and row views line up
	// with BucketOff.
	vs := newVoteSpace(got)
	if len(vs.flat) != got.NumBuckets() {
		t.Fatalf("vote space len %d, want %d", len(vs.flat), got.NumBuckets())
	}
	for i := range got.Items {
		if len(vs.row(i)) != len(got.Items[i].Buckets) {
			t.Fatalf("vote row %d len %d, want %d", i, len(vs.row(i)), len(got.Items[i].Buckets))
		}
	}
}

// TestBuildAllocsIndependentOfItems pins Build's allocation count: with no
// per-item allocation left, a world four times the items (same shape)
// costs the same number of allocations.
func TestBuildAllocsIndependentOfItems(t *testing.T) {
	allocs := func(objects int) float64 {
		ds, snaps := incWorldSized(t, 5, 1, objects)
		return testing.AllocsPerRun(3, func() { Build(ds, snaps[0], nil, AccuPr{}.Needs()) })
	}
	small, large := allocs(120), allocs(480)
	if large != small {
		t.Errorf("Build allocated %.0f objects on 480 items and %.0f on 1920; want a count independent of the items", small, large)
	}
	if small > 100 {
		t.Errorf("Build allocated %.0f objects, want at most 100", small)
	}
}
