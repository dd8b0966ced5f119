package fusion

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// incWorld simulates a multi-day claim stream with small daily churn:
// every (item, source) pair keeps its claim from the previous day unless a
// coin flips it into a change, a retraction or a fresh claim. Values mix
// exact and coarse-granularity representations so the similarity and
// format structures are exercised.
func incWorld(t *testing.T, seed int64, days int) (*model.Dataset, []*model.Snapshot) {
	t.Helper()
	return incWorldSized(t, seed, days, 120)
}

// incWorldSized is incWorld over numObjects objects (four items each).
func incWorldSized(t *testing.T, seed int64, days, numObjects int) (*model.Dataset, []*model.Snapshot) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := model.NewDataset("stream")
	const numAttrs, numSources = 4, 25
	var attrs []model.AttrID
	for a := 0; a < numAttrs; a++ {
		attrs = append(attrs, ds.AddAttr(model.Attribute{
			Name: fmt.Sprintf("a%d", a), Kind: value.Number, Considered: true,
		}))
	}
	for s := 0; s < numSources; s++ {
		ds.AddSource(model.Source{Name: fmt.Sprintf("s%d", s)})
	}
	for o := 0; o < numObjects; o++ {
		ds.AddObject(model.Object{Key: fmt.Sprintf("o%d", o), Group: fmt.Sprintf("g%d", o%3)})
	}
	var items []model.ItemID
	for o := 0; o < numObjects; o++ {
		for _, a := range attrs {
			items = append(items, ds.ItemFor(model.ObjectID(o), a))
		}
	}

	mkVal := func(item model.ItemID) value.Value {
		base := 100 + 17*float64(int(item)%7)
		switch rng.Intn(10) {
		case 0, 1: // wrong value, same magnitude
			return value.Num(base * (1 + 0.03*float64(1+rng.Intn(5))))
		case 2: // coarse representation of the true value
			return value.NumGran(value.RoundTo(base, 10), 10)
		default:
			return value.Num(base)
		}
	}

	// claimAt[item][src] holds the live claim, nil when absent.
	claimAt := make([][]*model.Claim, len(items))
	for i := range claimAt {
		claimAt[i] = make([]*model.Claim, numSources)
	}
	for _, item := range items {
		for s := 0; s < numSources; s++ {
			if rng.Float64() < 0.4 {
				claimAt[item][s] = &model.Claim{
					Source: model.SourceID(s), Item: item, Val: mkVal(item),
					CopiedFrom: model.NoSource,
				}
			}
		}
	}

	build := func(day int) *model.Snapshot {
		var cl []model.Claim
		for _, item := range items {
			for s := 0; s < numSources; s++ {
				if c := claimAt[item][s]; c != nil {
					cl = append(cl, *c)
				}
			}
		}
		return model.NewSnapshot(day, fmt.Sprintf("day%d", day), len(ds.Items), cl)
	}

	snaps := []*model.Snapshot{build(0)}
	for d := 1; d < days; d++ {
		for _, item := range items {
			for s := 0; s < numSources; s++ {
				if claimAt[item][s] != nil {
					switch {
					case rng.Float64() < 0.015: // change value
						claimAt[item][s] = &model.Claim{
							Source: model.SourceID(s), Item: item, Val: mkVal(item),
							CopiedFrom: model.NoSource,
						}
					case rng.Float64() < 0.005: // retract
						claimAt[item][s] = nil
					}
				} else if rng.Float64() < 0.003 { // new claim
					claimAt[item][s] = &model.Claim{
						Source: model.SourceID(s), Item: item, Val: mkVal(item),
						CopiedFrom: model.NoSource,
					}
				}
			}
		}
		snaps = append(snaps, build(d))
	}
	ds.AddSnapshot(snaps[0])
	ds.ComputeTolerances(value.DefaultAlpha, snaps[0])
	return ds, snaps
}

// sameProblem demands bitwise equality of every problem structure.
func sameProblem(t *testing.T, ctx string, a, b *Problem) {
	t.Helper()
	if len(a.Items) != len(b.Items) {
		t.Fatalf("%s: %d vs %d items", ctx, len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		if !reflect.DeepEqual(a.Items[i], b.Items[i]) {
			t.Fatalf("%s: item %d differs:\n%+v\nvs\n%+v", ctx, i, a.Items[i], b.Items[i])
		}
	}
	if !reflect.DeepEqual(a.ClaimsPerSource, b.ClaimsPerSource) {
		t.Fatalf("%s: claims per source differ", ctx)
	}
	if !reflect.DeepEqual(a.Cats, b.Cats) || !reflect.DeepEqual(a.CatNames, b.CatNames) {
		t.Fatalf("%s: categories differ", ctx)
	}
	if !reflect.DeepEqual(a.Sim, b.Sim) {
		t.Fatalf("%s: similarity structures differ", ctx)
	}
	if (a.Format == nil) != (b.Format == nil) {
		t.Fatalf("%s: format presence differs", ctx)
	}
	for i := range a.Format {
		if len(a.Format[i]) == 0 && len(b.Format[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(a.Format[i], b.Format[i]) {
			t.Fatalf("%s: format[%d] differs", ctx, i)
		}
	}
}

// sameRun demands bitwise equality of the run outputs (Elapsed excluded).
func sameRun(t *testing.T, ctx string, a, b *Result) {
	t.Helper()
	if a.Method != b.Method || a.Rounds != b.Rounds || a.Converged != b.Converged {
		t.Fatalf("%s: method/rounds/converged %s/%d/%v vs %s/%d/%v",
			ctx, a.Method, a.Rounds, a.Converged, b.Method, b.Rounds, b.Converged)
	}
	if !reflect.DeepEqual(a.Chosen, b.Chosen) {
		t.Fatalf("%s: chosen differ", ctx)
	}
	if !reflect.DeepEqual(a.Trust, b.Trust) {
		t.Fatalf("%s: trust differs\n%v\nvs\n%v", ctx, a.Trust, b.Trust)
	}
	if !reflect.DeepEqual(a.AttrTrust, b.AttrTrust) {
		t.Fatalf("%s: attr trust differs", ctx)
	}
}

// TestUpdateProblemMatchesBuild drives UpdateProblem across a 40-delta
// chain and asserts bitwise equality with a from-scratch Build at every
// step. The chain is long enough for the compaction rule to fire several
// times and to be skipped in between; every compacted problem must be
// laid out in one arena again.
func TestUpdateProblemMatchesBuild(t *testing.T) {
	ds, snaps := incWorld(t, 7, 41)
	opts := BuildOptions{NeedSimilarity: true, NeedFormat: true}
	prev := Build(ds, snaps[0], nil, opts)
	compactions, skips := 0, 0
	for d := 1; d < len(snaps); d++ {
		delta, err := snaps[d-1].Diff(snaps[d])
		if err != nil {
			t.Fatal(err)
		}
		if delta.Empty() {
			t.Fatalf("day %d: churn world produced an empty delta", d)
		}
		got, rebuilt := UpdateProblem(ds, snaps[d], prev, delta.DirtyItems(), opts)
		want := Build(ds, snaps[d], nil, opts)
		ctx := fmt.Sprintf("day %d", d)
		sameProblem(t, ctx, got, want)
		if len(rebuilt) == 0 || len(rebuilt) >= len(got.Items) {
			t.Fatalf("day %d: rebuilt %d of %d items — churn should dirty a strict subset",
				d, len(rebuilt), len(got.Items))
		}
		since := prev.sinceCompact + len(rebuilt)
		switch {
		case got.sinceCompact == 0:
			if 2*since < len(got.Items) {
				t.Fatalf("day %d: compacted after %d of %d items rebuilt, under half", d, since, len(got.Items))
			}
			assertContiguous(t, ctx, got)
			compactions++
		case got.sinceCompact != since:
			t.Fatalf("day %d: %d items rebuilt since the last compaction, want %d", d, got.sinceCompact, since)
		default:
			skips++
		}
		prev = got
	}
	if compactions < 3 || skips < compactions {
		t.Fatalf("%d compactions and %d skips over the chain; want several of each", compactions, skips)
	}
}

// TestAdvanceBitIdentical is the incremental engine's core contract: with
// the default (zero) trust tolerance, advancing a state over a delta
// stream is bit-identical to fusing every day's snapshot from scratch.
// Vote exercises the item-local path; the others the full-re-run path on
// the incrementally maintained problem.
func TestAdvanceBitIdentical(t *testing.T) {
	ds, snaps := incWorld(t, 11, 5)
	for _, name := range []string{"Vote", "AccuPr", "AccuFormatAttr", "TruthFinder", "2-Estimates"} {
		m, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown method %s", name)
		}
		opts := Options{}
		st := NewState(ds, snaps[0], nil, m, opts)
		for d := 1; d < len(snaps); d++ {
			delta, err := snaps[d-1].Diff(snaps[d])
			if err != nil {
				t.Fatal(err)
			}
			next, stats, err := st.Advance(ds, delta, opts, IncrementalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantMode := ModeFull
			if name == "Vote" {
				wantMode = ModeLocal
			}
			if stats.Mode != wantMode {
				t.Fatalf("%s day %d: mode %s, want %s", name, d, stats.Mode, wantMode)
			}

			needs := m.Needs()
			full := Build(ds, snaps[d], nil, needs)
			sameProblem(t, fmt.Sprintf("%s day %d problem", name, d), next.Problem, full)
			want := m.Run(full, opts)
			sameRun(t, fmt.Sprintf("%s day %d", name, d), next.Result, want)
			st = next
		}
	}
}

// TestAdvanceWarmWithinTolerance checks the warm dirty-only path: with a
// generous tolerance the ACCU family must take ModeWarm, stay within the
// drift bound, and agree with full re-fusion on almost every answer.
func TestAdvanceWarmWithinTolerance(t *testing.T) {
	ds, snaps := incWorld(t, 13, 3)
	for _, name := range []string{"AccuPr", "AccuFormatAttr"} {
		m, _ := ByName(name)
		opts := Options{}
		const tol = 0.05
		st := NewState(ds, snaps[0], nil, m, opts)
		for d := 1; d < len(snaps); d++ {
			delta, err := snaps[d-1].Diff(snaps[d])
			if err != nil {
				t.Fatal(err)
			}
			next, stats, err := st.Advance(ds, delta, opts, IncrementalOptions{TrustTolerance: tol})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Mode != ModeWarm {
				t.Fatalf("%s day %d: mode %s (fallback=%v), want warm", name, d, stats.Mode, stats.Fallback)
			}

			full := Build(ds, snaps[d], nil, m.Needs())
			want := m.Run(full, opts)
			agree := 0
			for i := range want.Chosen {
				if next.Result.Chosen[i] == want.Chosen[i] {
					agree++
				}
			}
			if frac := float64(agree) / float64(len(want.Chosen)); frac < 0.98 {
				t.Fatalf("%s day %d: warm path agrees on only %.1f%% of items", name, d, 100*frac)
			}
			for s := range want.Trust {
				if diff := want.Trust[s] - next.Result.Trust[s]; diff > 2*tol || diff < -2*tol {
					t.Fatalf("%s day %d: trust[%d] drifted %f past the bound", name, d, s, diff)
				}
			}
			st = next
		}
	}
}

// TestAdvanceWarmFallsBack checks the convergence-aware fallback: with a
// vanishing tolerance any real churn drifts the trust vector, the warm
// path aborts, and the full path yields bit-identical results.
func TestAdvanceWarmFallsBack(t *testing.T) {
	ds, snaps := incWorld(t, 17, 2)
	m, _ := ByName("AccuPr")
	opts := Options{}
	st := NewState(ds, snaps[0], nil, m, opts)
	delta, err := snaps[0].Diff(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	next, stats, err := st.Advance(ds, delta, opts, IncrementalOptions{TrustTolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != ModeFull || !stats.Fallback {
		t.Fatalf("mode %s fallback %v, want full after fallback", stats.Mode, stats.Fallback)
	}
	full := Build(ds, snaps[1], nil, m.Needs())
	sameRun(t, "fallback", next.Result, m.Run(full, opts))
}

// TestAdvanceRejectsStaleDelta checks that a delta for the wrong base
// surfaces as an error instead of corrupting the stream.
func TestAdvanceRejectsStaleDelta(t *testing.T) {
	ds, snaps := incWorld(t, 19, 3)
	m, _ := ByName("Vote")
	st := NewState(ds, snaps[0], nil, m, Options{})
	// Diff day1 -> day2 applied onto day0: payloads won't match.
	delta, err := snaps[1].Diff(snaps[2])
	if err != nil {
		t.Fatal(err)
	}
	if delta.Empty() {
		t.Skip("no churn between day1 and day2")
	}
	if _, _, err := st.Advance(ds, delta, Options{}, IncrementalOptions{}); err == nil {
		t.Fatal("stale delta accepted")
	}
}
