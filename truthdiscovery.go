// Package truthdiscovery is a from-scratch Go reproduction of "Truth
// Finding on the Deep Web: Is the Problem Solved?" (Li, Dong, Lyons, Meng,
// Srivastava; PVLDB 6(2), 2012).
//
// It bundles, behind one public API:
//
//   - the paper's data model (sources providing values for data items),
//   - all sixteen data-fusion methods of the paper's Section 4 (VOTE, the
//     Web-link family, the IR family, the Bayesian ACCU family, TRUTHFINDER
//     and copy-aware ACCUCOPY),
//   - Bayesian copy detection between sources,
//   - the Section 3 data-quality profiling measures, and
//   - calibrated simulators of the paper's Stock and Flight collections.
//
// # Quick start
//
// Build a dataset from raw claims and fuse it:
//
//	b := truthdiscovery.NewBuilder("books")
//	price := b.Attribute("price", truthdiscovery.Number)
//	a, bk := b.Source("storeA"), b.Object("golang-book")
//	_ = b.Claim(a, bk, price, "42.50")
//	ds, snap, _ := b.Build()
//	answers, _ := truthdiscovery.Fuse(ds, snap, "AccuPr", truthdiscovery.FuseOptions{})
//
// Or regenerate the paper's experiments via the experiments package and the
// cmd/truthbench binary.
package truthdiscovery

import (
	"fmt"
	"math"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// Re-exported core types. The internal packages stay the implementation;
// these aliases are the supported public surface.
type (
	// Dataset is a domain's sources, objects, attributes and items.
	Dataset = model.Dataset
	// Snapshot holds all claims collected at one point in time.
	Snapshot = model.Snapshot
	// Claim is one (source, item, value) observation.
	Claim = model.Claim
	// Source, Object, Attribute, Item are the schema elements.
	Source    = model.Source
	Object    = model.Object
	Attribute = model.Attribute
	Item      = model.Item
	// SourceID, ObjectID, AttrID, ItemID are dense identifiers.
	SourceID = model.SourceID
	ObjectID = model.ObjectID
	AttrID   = model.AttrID
	ItemID   = model.ItemID
	// TruthTable maps items to (believed) true values.
	TruthTable = model.TruthTable
	// Value is one normalised attribute value; ValueKind its kind.
	Value     = value.Value
	ValueKind = value.Kind
	// FusionMethod is one of the paper's sixteen algorithms.
	FusionMethod = fusion.Method
	// FusionResult is a fusion run's output.
	FusionResult = fusion.Result
	// FusionEval holds precision/recall/trust measures for a run.
	FusionEval = fusion.Eval
	// Planner tunes the adaptive execution planner (FuseOptions.Planner).
	Planner = fusion.Planner
	// PlannerMode selects auto planning or a forced plan.
	PlannerMode = fusion.PlannerMode
	// Plan is one advance's recorded execution decision.
	Plan = fusion.Plan
	// PlanFeatures are the measured delta features a plan decided on.
	PlanFeatures = fusion.PlanFeatures
	// PlanLayout names a problem layout (flat or sharded).
	PlanLayout = fusion.PlanLayout
)

// Planner modes and layouts.
const (
	// PlannerAuto computes each advance's plan from the delta features.
	PlannerAuto = fusion.PlannerAuto
	// PlannerForced executes exactly the plan named by the planner's
	// ForcePath/ForceLayout.
	PlannerForced = fusion.PlannerForced
	// LayoutFlat is the single-arena flat engine.
	LayoutFlat = fusion.LayoutFlat
	// LayoutSharded is the per-item-shard engine.
	LayoutSharded = fusion.LayoutSharded
)

// Value kinds.
const (
	Number = value.Number
	Time   = value.Time
	Text   = value.Text
)

// DefaultAlpha is the paper's tolerance factor for Eq. 3.
const DefaultAlpha = value.DefaultAlpha

// Methods returns the paper's fusion methods in Table 6 order.
func Methods() []FusionMethod { return fusion.Methods() }

// MethodByName returns a fusion method by its paper name ("Vote", "Hub",
// "AvgLog", "Invest", "PooledInvest", "Cosine", "2-Estimates",
// "3-Estimates", "TruthFinder", "AccuPr", "PopAccu", "AccuSim",
// "AccuFormat", "AccuSimAttr", "AccuFormatAttr", "AccuCopy").
func MethodByName(name string) (FusionMethod, bool) { return fusion.ByName(name) }

// Builder assembles a dataset from raw string claims, handling value
// parsing, normalisation and item allocation.
type Builder struct {
	ds     *model.Dataset
	claims []model.Claim
	days   []dayClaims // sealed days for BuildStream (see EndDay)
	err    error
}

// dayClaims is one sealed day of a streaming build.
type dayClaims struct {
	label  string
	claims []model.Claim
}

// NewBuilder starts a dataset for the named domain.
func NewBuilder(domain string) *Builder {
	return &Builder{ds: model.NewDataset(domain)}
}

// Attribute registers a global attribute of the given kind and returns its
// ID. Attributes registered through the builder are always "considered".
func (b *Builder) Attribute(name string, kind ValueKind) AttrID {
	return b.ds.AddAttr(model.Attribute{Name: name, Kind: kind, Considered: true})
}

// Source registers a source and returns its ID.
func (b *Builder) Source(name string) SourceID {
	return b.ds.AddSource(model.Source{Name: name})
}

// AuthoritySource registers a source marked as an authority (usable for
// gold-standard voting).
func (b *Builder) AuthoritySource(name string) SourceID {
	return b.ds.AddSource(model.Source{Name: name, Authority: true})
}

// Object registers a real-world object and returns its ID.
func (b *Builder) Object(key string) ObjectID {
	return b.ds.AddObject(model.Object{Key: key})
}

// Claim records that the source provides raw as the value of (object,
// attribute). The raw string is parsed per the attribute's kind ("6.7M",
// "6,700,000", "18:15", "6:15pm", "B22"...). The first parse error is
// retained and returned by Build.
func (b *Builder) Claim(src SourceID, obj ObjectID, attr AttrID, raw string) error {
	v, err := value.Parse(b.ds.Attrs[attr].Kind, raw)
	if err != nil {
		if b.err == nil {
			b.err = err
		}
		return err
	}
	item := b.ds.ItemFor(obj, attr)
	b.claims = append(b.claims, model.Claim{
		Source: src, Item: item, Val: v, CopiedFrom: model.NoSource,
	})
	return nil
}

// ClaimValue records an already-normalised value. A number or time that is
// not finite is refused: the claim is dropped and Build returns the first
// such error.
func (b *Builder) ClaimValue(src SourceID, obj ObjectID, attr AttrID, v Value) {
	if v.Kind != value.Text && (math.IsNaN(v.Num) || math.IsInf(v.Num, 0)) {
		if b.err == nil {
			b.err = fmt.Errorf("truthdiscovery: non-finite %s value %v for object %d, attribute %d",
				v.Kind, v.Num, obj, attr)
		}
		return
	}
	item := b.ds.ItemFor(obj, attr)
	b.claims = append(b.claims, model.Claim{
		Source: src, Item: item, Val: v, CopiedFrom: model.NoSource,
	})
}

// Build finalises the dataset: the snapshot is indexed, per-attribute
// tolerances are derived (Eq. 3 with the default alpha), and the first
// recorded error, if any, is returned.
func (b *Builder) Build() (*Dataset, *Snapshot, error) {
	if b.err != nil {
		return nil, nil, b.err
	}
	snap := model.NewSnapshot(0, "snapshot", len(b.ds.Items), b.claims)
	b.ds.AddSnapshot(snap)
	b.ds.ComputeTolerances(value.DefaultAlpha, snap)
	if err := b.ds.Validate(); err != nil {
		return nil, nil, err
	}
	return b.ds, snap, nil
}

// Answer is one fused data item: the winning value and its support. It is
// an alias of the internal rendering type so the serving layer
// (internal/store, internal/serve) shares it without conversion.
type Answer = fusion.Answer

// FuseOptions configures Fuse.
type FuseOptions struct {
	// Sources restricts fusion to these sources (nil = all).
	Sources []SourceID
	// Gold, when set, lets trust-aware methods start from sampled
	// trustworthiness ("prec w. trust" in the paper).
	Gold *TruthTable
	// KnownCopyGroups feeds AccuCopy discovered copying groups.
	KnownCopyGroups [][]SourceID
	// Parallelism bounds the worker pool used for problem construction,
	// the per-item phases of every fusion iteration, and copy detection:
	// 0 (the default) uses GOMAXPROCS, 1 forces the exact serial path.
	// Results are bit-identical at any setting.
	Parallelism int
	// TrustTolerance (the incremental engines) enables the approximate
	// dirty-only warm path: the ACCU-family methods re-run the posterior
	// phase only for changed items while no source trust drifts more than
	// this from the previous state, falling back to full re-fusion past
	// it. 0 (the default) keeps incremental answers bit-identical to Fuse.
	// Both layouts support it: the sharded engine runs the same warm
	// iteration per shard, feeding the deterministic cross-shard trust
	// merge — bit-identical to the flat warm path at any shard count.
	TrustTolerance float64
	// Planner, when set, plans each incremental advance from the day's
	// measured delta features (churn fraction, dirty-shard fan-out, arena
	// bytes) instead of the fixed tolerance-only gating: PlannerAuto
	// applies the churn ceiling to the warm path (warm wins at low churn,
	// loses at the paper's 90%-churn days), PlannerForced executes
	// exactly the named path. FuseAuto additionally uses
	// Planner.ArenaBudgetBytes to lay the world out flat or sharded. The
	// decision and its features are recorded on the result
	// (FusionResult.Plan) and in the stats of every advance.
	Planner *Planner
	// Shards partitions the items into this many range shards, each fused
	// as its own problem with one deterministic cross-shard trust merge.
	// 0 or 1 means one shard. Answers are bit-identical to Fuse at any
	// setting; Fuse itself delegates to the sharded engine when Shards > 1.
	Shards int
	// MaxResidentShards (with Shards > 1) bounds how many shard arenas
	// stay in memory at once: shards beyond the bound are rebuilt on
	// demand and dropped after each pass, trading time for a memory
	// ceiling of roughly one shard's arena. 0 keeps every shard resident.
	MaxResidentShards int
}

// Fuse resolves conflicts in a snapshot with the named method and returns
// one answer per claimed item, in item order.
//
// With FuseOptions.Shards > 1 the call delegates to the sharded engine
// (FuseSharded): answers are bit-identical, so the shard count is purely an
// execution choice — shard-level concurrency, or a bounded memory ceiling
// via MaxResidentShards — and never changes the result.
func Fuse(ds *Dataset, snap *Snapshot, method string, opts FuseOptions) ([]Answer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Shards > 1 {
		return FuseSharded(ds, snap, method, opts)
	}
	m, ok := fusion.ByName(method)
	if !ok {
		return nil, fmt.Errorf("truthdiscovery: unknown fusion method %q", method)
	}
	needs := m.Needs()
	needs.Parallelism = opts.Parallelism
	p := fusion.Build(ds, snap, opts.Sources, needs)
	fo := fusion.Options{KnownGroups: opts.KnownCopyGroups, Parallelism: opts.Parallelism}
	if opts.Gold != nil {
		fo.InputTrust = m.TrustScale(fusion.SampleAccuracy(ds, snap, p, opts.Gold))
		fo.InputAttrTrust = fusion.SampleAttrAccuracy(ds, snap, p, opts.Gold)
	}
	res := m.Run(p, fo)
	return fusion.AnswersFor(ds, p, res), nil
}

// EvaluateAgainst scores fused answers against a gold standard, returning
// precision over answered gold items and recall over all gold items.
func EvaluateAgainst(ds *Dataset, answers []Answer, gold *TruthTable) FusionEval {
	right, answered := 0, 0
	for _, a := range answers {
		truth, ok := gold.Get(a.Item)
		if !ok {
			continue
		}
		answered++
		if value.Equal(truth, a.Value, ds.Tolerance(ds.Items[a.Item].Attr)) {
			right++
		}
	}
	var e FusionEval
	if answered > 0 {
		e.Precision = float64(right) / float64(answered)
	}
	if gold.Len() > 0 {
		e.Recall = float64(right) / float64(gold.Len())
	}
	e.Errors = answered - right
	return e
}
