package datagen

import (
	"truthdiscovery/internal/model"
)

// StockConfig parameterises the Stock collection simulator. The zero value
// is not usable; call DefaultStockConfig for the paper-scale defaults.
type StockConfig struct {
	Seed int64
	// Stocks is the number of symbols (paper: 1000, including 10 terminated
	// symbols that trigger instance ambiguity).
	Stocks int
	// Days is the number of trading days collected (paper: 21 weekdays of
	// July 2011).
	Days int
	// GoldSymbols is the number of symbols in the gold standard (paper: 100
	// NASDAQ + 100 randomly chosen = 200).
	GoldSymbols int
	// Sources is the source count (paper: 55). Must be at least 35 so the
	// fixed roster (authorities, StockSmart, the two copying cliques) fits.
	Sources int
}

// DefaultStockConfig returns the paper-scale Stock configuration.
func DefaultStockConfig(seed int64) StockConfig {
	return StockConfig{Seed: seed, Stocks: 1000, Days: 21, GoldSymbols: 200, Sources: 55}
}

// FlightConfig parameterises the Flight collection simulator.
type FlightConfig struct {
	Seed int64
	// Flights is the number of flights tracked per day (paper: 1200).
	Flights int
	// Days is the number of days collected (paper: 31 days of Dec 2011).
	Days int
	// GoldFlights is the number of flights in the gold standard (paper: 100).
	GoldFlights int
	// Sources is the source count including the three airline sites used as
	// gold (paper: 38). Must be at least 32 so the fixed roster fits.
	Sources int
}

// DefaultFlightConfig returns the paper-scale Flight configuration.
func DefaultFlightConfig(seed int64) FlightConfig {
	return FlightConfig{Seed: seed, Flights: 1200, Days: 31, GoldFlights: 100, Sources: 38}
}

// CopyGroup describes one clique of sources with copying, as reported in
// the paper's Table 5. Origin is the member whose data the others replicate.
type CopyGroup struct {
	Remark  string // e.g. "Depen claimed", "Query redirection"
	Origin  model.SourceID
	Members []model.SourceID // includes Origin
}

// SourceProfile is the behavioural model of one simulated source. It is
// exported so tests and documentation can introspect the roster; fusion
// methods never see it.
type SourceProfile struct {
	Name      string
	Authority bool
	// TargetAccuracy is the accuracy the error knobs were derived from; the
	// realised accuracy is measured, not forced.
	TargetAccuracy float64
	// ObjCoverage is the fraction of objects the source covers.
	ObjCoverage float64
	// Attrs is the set of considered attributes the source provides.
	Attrs []model.AttrID
	// StaleRate is the per-claim probability of serving out-of-date data on
	// statistical attributes (for Flight: on any attribute).
	StaleRate float64
	// ErrRate is the per-claim probability of a pure error on statistical
	// attributes (for Flight: on any attribute).
	ErrRate float64
	// PriceStaleRate / PriceErrRate are the real-time-attribute (price)
	// counterparts for the Stock domain. The paper's collections show very
	// clean prices even from sources whose statistical attributes are poor,
	// so the two error budgets are decoupled.
	PriceStaleRate float64
	PriceErrRate   float64
	// UnitErrRate is the per-claim probability of a unit error (x1000).
	UnitErrRate float64
	// JitterRate is the relative sigma of the source's idiosyncratic
	// capture-time deviation on fast-moving attributes (volume); 0 means
	// the source relays the consolidated feed exactly.
	JitterRate float64
	// Variant maps ambiguous attributes to the semantic variant this source
	// adopted (0 = dominant semantics).
	Variant map[model.AttrID]int
	// Gran maps attributes to the formatting granularity the source uses
	// (0 = exact representation).
	Gran map[model.AttrID]float64
	// InstanceConfused sources map terminated stock symbols onto other
	// entities (instance-level ambiguity).
	InstanceConfused bool
	// Frozen sources stopped refreshing: they serve the world as of
	// FrozenDay (may be negative, i.e. before the collection window).
	Frozen    bool
	FrozenDay int
	// CopyOf is the origin this source copies from (NoSource if independent)
	// and CopyRate the per-item probability of serving the origin's claim.
	CopyOf   model.SourceID
	CopyRate float64
	// BadDayRate/BadDayFactor give day-level quality swings: on a "bad day"
	// (probability BadDayRate per day) the stale and error rates are
	// multiplied by BadDayFactor. Drives the paper's Figure 8(b).
	BadDayRate   float64
	BadDayFactor float64
	// SystematicAttr, if >= 0, is an attribute on which this source is
	// systematically wrong (the FlightAware scheduled-arrival anecdote).
	SystematicAttr model.AttrID
}

// Generated bundles everything a simulation produces.
type Generated struct {
	Dataset *model.Dataset
	// Truths holds the world ground truth per collection day. This is the
	// generator's omniscient truth, not the gold standard; gold standards
	// are built from authority sources by the gold package.
	Truths []*model.TruthTable
	// CopyGroups lists the planted copying cliques (Table 5 ground truth).
	CopyGroups []CopyGroup
	// Authorities lists the sources used for gold-standard construction.
	Authorities []model.SourceID
	// Fused lists the sources participating in fusion (for Flight this
	// excludes the airline sites whose data form the gold standard).
	Fused []model.SourceID
	// GoldObjects lists the objects covered by the gold standard.
	GoldObjects []model.ObjectID
	// Profiles holds the behavioural model per source.
	Profiles []SourceProfile
}

// Generator is the interface both domain simulators satisfy; the experiment
// harness and public API work against it.
type Generator interface {
	Dataset() *model.Dataset
	Snapshot(day int) *model.Snapshot
	Truth(day int) *model.TruthTable
	CopyGroups() []CopyGroup
	Profiles() []SourceProfile
	Authorities() []model.SourceID
	FusedSources() []model.SourceID
	GoldObjects() []model.ObjectID
	LocalAttrCount() int
}

var (
	_ Generator = (*StockGenerator)(nil)
	_ Generator = (*FlightGenerator)(nil)
)
