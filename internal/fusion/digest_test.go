package fusion

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"truthdiscovery/internal/datagen"
	"truthdiscovery/internal/gold"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// The frozen reference. testdata/golden_digests.txt holds SHA-256
// digests of what each method's own flat round loop computed, back when
// every method still had one beside the round executor: cold runs of
// every method on reduced simulated Stock and Flight under four option
// sets, AccuCopy's known-groups and detector settings, the copy
// detector's matrix, the churn world's exact advance chain, and the warm
// advance chain of the flat warm reference
// (TestShardedWarmMatchesFlatWarm). The executor is now the only code
// that runs a round; the digests pin its loops — start trust, tails,
// convergence and finish — to what the flat loops computed, on every
// path: Method.Run, every shard layout, every state advance. The table
// is never regenerated: a digest that moves is a behaviour change.

const digestFile = "testdata/golden_digests.txt"

// digestsComparable reports whether this build can reproduce the
// committed digests, which are amd64 results. Elsewhere Go may fuse
// x*y+z into one FMA (arm64, loong64, ppc64le, riscv64, s390x) and
// math.Exp runs per-architecture assembly, so the last bit can differ:
// the digest comparison is skipped there, except under CI (CI set),
// where a runner that cannot check the reference is a failure.
func digestsComparable(t *testing.T) bool {
	t.Helper()
	if runtime.GOARCH == "amd64" {
		return true
	}
	reason := fmt.Sprintf("golden digests are amd64 results; on %s fused multiply-adds and math.Exp assembly can move the last bit", runtime.GOARCH)
	if os.Getenv("CI") != "" {
		t.Fatalf("%s, and CI must check the frozen reference", reason)
	}
	t.Log(reason)
	return false
}

// digester hashes run outputs: every integer as a 64-bit little-endian
// word, every float as its IEEE-754 bits, every vector behind its
// length.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) word(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}

func (d *digester) floats(xs []float64) {
	d.word(uint64(len(xs)))
	for _, x := range xs {
		d.word(math.Float64bits(x))
	}
}

func (d *digester) rows(rs [][]float64) {
	d.word(uint64(len(rs)))
	for _, r := range rs {
		d.floats(r)
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// resultDigest hashes a run: Chosen, Trust, AttrTrust and Posteriors
// (row-major), then Rounds and Converged.
func resultDigest(res *Result) string {
	d := newDigester()
	d.word(uint64(len(res.Chosen)))
	for _, c := range res.Chosen {
		d.word(uint64(c))
	}
	d.floats(res.Trust)
	d.rows(res.AttrTrust)
	d.rows(res.Posteriors)
	d.word(uint64(res.Rounds))
	converged := uint64(0)
	if res.Converged {
		converged = 1
	}
	d.word(converged)
	return d.sum()
}

// digestCheck compares computed digests with the committed table and
// names every method whose digest moved.
type digestCheck struct {
	t     *testing.T
	want  map[string]string // key -> the rest of its table line
	moved map[string]bool
}

// loadDigests reads the committed table.
func loadDigests(t *testing.T) *digestCheck {
	t.Helper()
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	c := &digestCheck{t: t, want: map[string]string{}, moved: map[string]bool{}}
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		c.want[key] = rest
	}
	return c
}

// expect checks one entry; method names whom a difference is reported
// against.
func (c *digestCheck) expect(key, method, got string) {
	c.t.Helper()
	want, ok := c.want[key]
	switch {
	case !ok:
		c.t.Errorf("%s: not in %s (computed %s)", key, digestFile, got)
	case want != got:
		c.t.Errorf("%s: computed %s, frozen %s", key, got, want)
	default:
		return
	}
	c.moved[method] = true
}

// report names the methods whose digests moved.
func (c *digestCheck) report() {
	c.t.Helper()
	if len(c.moved) == 0 {
		return
	}
	names := make([]string, 0, len(c.moved))
	for m := range c.moved {
		names = append(names, m)
	}
	sort.Strings(names)
	c.t.Errorf("frozen digests moved for: %s", strings.Join(names, ", "))
}

// digestWorld is one reduced simulated collection on day 0, with the
// trust inputs of its option sets.
type digestWorld struct {
	name    string
	ds      *model.Dataset
	snap    *model.Snapshot
	fused   []model.SourceID
	acc     []float64          // sampled accuracy on the gold items
	attrAcc [][]float64        // sampled per-attribute accuracy
	seed    []float64          // SeedTrust on the consistent items
	groups  [][]model.SourceID // the generator's copy groups, as KnownGroups
}

func simulatedWorld(name string, gen datagen.Generator) digestWorld {
	ds := gen.Dataset()
	snap := gen.Snapshot(0)
	ds.AddSnapshot(snap)
	ds.ComputeTolerances(value.DefaultAlpha, snap)
	fused := gen.FusedSources()
	gd := gold.ForGenerated(gen, snap)
	var groups [][]model.SourceID
	for _, g := range gen.CopyGroups() {
		groups = append(groups, g.Members)
	}
	return digestWorld{name: name, ds: ds, snap: snap, fused: fused,
		acc:     SampleAccuracySources(ds, snap, fused, gd),
		attrAcc: SampleAttrAccuracySources(ds, snap, fused, gd),
		seed:    SeedTrust(Build(ds, snap, fused, BuildOptions{}), 0.75),
		groups:  groups}
}

// digestWorlds returns reduced Stock and Flight at seed 1.
func digestWorlds() []digestWorld {
	scfg := datagen.DefaultStockConfig(1)
	scfg.Stocks, scfg.GoldSymbols, scfg.Days = 120, 60, 1
	fcfg := datagen.DefaultFlightConfig(1)
	fcfg.Flights, fcfg.GoldFlights, fcfg.Days = 200, 60, 1
	return []digestWorld{
		simulatedWorld("Stock", datagen.NewStock(scfg)),
		simulatedWorld("Flight", datagen.NewFlight(fcfg)),
	}
}

type digestOpts struct {
	label string
	opts  Options
}

// coldOptions returns the option sets of a method's cold runs: defaults,
// sampled trust, seeded trust and a single round, plus AccuCopy's known
// groups and detector settings.
func coldOptions(w digestWorld, m Method) []digestOpts {
	sets := []digestOpts{
		{"default", Options{}},
		{"sampled", Options{InputTrust: m.TrustScale(w.acc), InputAttrTrust: w.attrAcc}},
		{"seed", Options{InitialTrust: m.TrustScale(w.seed)}},
		{"rounds1", Options{MaxRounds: 1}},
	}
	if m.cfg.copies {
		sets = append(sets,
			digestOpts{"knowngroups", Options{KnownGroups: w.groups}},
			digestOpts{"simaware", Options{CopyDetectSimilarityAware: true}},
			digestOpts{"paper2009", Options{CopyDetectPaper2009: true}})
	}
	return sets
}

// TestGoldenDigests checks every method against the frozen reference:
// cold runs through Method.Run (default options also through the
// executor over three shards), the copy detector, and the exact advance
// chain at one and four shards.
func TestGoldenDigests(t *testing.T) {
	if !digestsComparable(t) {
		t.Skip("frozen digests not comparable on this architecture")
	}
	c := loadDigests(t)
	defer c.report()
	methods := append(Methods(), ExtensionMethods()...)

	for _, w := range digestWorlds() {
		for _, m := range methods {
			p := Build(w.ds, w.snap, w.fused, m.Needs())
			spec := model.RangeShards(3, w.snap.NumItems())
			for _, o := range coldOptions(w, m) {
				key := fmt.Sprintf("cold/%s/%s/%s", w.name, m.Name(), o.label)
				c.expect(key, m.Name(), resultDigest(m.Run(p, o.opts)))
				if o.label != "default" {
					continue // the sharded suites cover the other options
				}
				res, _, err := FuseSharded(w.ds, w.snap, w.fused, spec, m, o.opts, 0)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				c.expect(key, m.Name(), resultDigest(res))
			}
		}

		p := Build(w.ds, w.snap, w.fused, methodNamed("AccuCopy").Needs())
		chosen := make([]int32, len(p.Items)) // the dominant values
		for _, o := range []digestOpts{
			{"default", Options{}},
			{"simaware", Options{CopyDetectSimilarityAware: true}},
			{"paper2009", Options{CopyDetectPaper2009: true}},
		} {
			d := newDigester()
			d.rows(DebugDetect(p, chosen, w.acc, o.opts))
			c.expect(fmt.Sprintf("detect/%s/%s", w.name, o.label), "copy detector", d.sum())
		}
	}

	// The exact advance chain: at tolerance 0 every advance equals a
	// cold run on its day's snapshot, at any layout.
	ds, snaps := incWorld(t, 11, 4)
	for _, m := range methods {
		for d, snap := range snaps {
			key := fmt.Sprintf("advance/%s/day%d", m.Name(), d)
			c.expect(key, m.Name(), resultDigest(m.Run(Build(ds, snap, nil, m.Needs()), Options{})))
		}
		for _, shards := range []int{1, 4} {
			st, err := NewState(ds, snaps[0], nil, model.RangeShards(shards, snaps[0].NumItems()), m, Options{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			c.expect(fmt.Sprintf("advance/%s/day0", m.Name()), m.Name(), resultDigest(st.Result))
			for d := 1; d < len(snaps); d++ {
				delta, err := snaps[d-1].Diff(snaps[d])
				if err != nil {
					t.Fatal(err)
				}
				if st, _, err = st.Advance(ds, delta, Options{}, IncrementalOptions{}); err != nil {
					t.Fatal(err)
				}
				c.expect(fmt.Sprintf("advance/%s/day%d", m.Name(), d), m.Name(), resultDigest(st.Result))
			}
		}
	}
}
