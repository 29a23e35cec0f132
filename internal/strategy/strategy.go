// Package strategy defines the bidding-strategy interface the replay
// harness drives and the comparison strategies: the paper's
// Extra(m, p) heuristics and on-demand baseline (§5.2), plus rivals
// from the related literature — feedback-control bidding
// (feedback.go), optimized on-demand/spot portfolio contracts
// (portfolio.go), and checkpoint/restart low bidding (checkpoint.go).
// The paper's own framework, Jupiter, lives in internal/core and
// implements the same interface. The spec strings that name them all
// ("jupiter", "extra(2, 0.2)", ...) are parsed by one table,
// internal/experiments.Families.
package strategy

import (
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/quorum"
	"repro/internal/trace"
)

// MarketView is what a strategy can observe at decision time: current
// prices, their ages, and price history — never the future. Candidate
// capacity sources are identified by pool key (market.PoolKey): the
// bare zone name for pools of the service's base instance type,
// "zone/type" for other types. A single-type view is therefore exactly
// the zone-keyed view this interface always exposed.
type MarketView interface {
	// Now returns the current minute.
	Now() int64
	// Zones lists the candidate pool keys (zone names when the
	// deployment uses a single instance type).
	Zones() []string
	// SpotPrice returns the current spot price of a pool.
	SpotPrice(zone string) (market.Money, error)
	// SpotPriceAge returns how long the current price has held, in
	// minutes.
	SpotPriceAge(zone string) (int64, error)
	// PriceHistory returns past prices over [from, to) clamped to
	// what has been observed.
	PriceHistory(zone string, from, to int64) (*trace.Trace, error)
}

// TraceIdentifier is an optional MarketView extension: views backed by
// a fixed price history expose its identity (trace.Set.Fingerprint) so
// strategies can key shared caches of history-derived artifacts —
// notably trained price models (internal/modelcache) — by it. Views
// without it force such strategies onto private caches.
type TraceIdentifier interface {
	TraceFingerprint() uint64
}

// EventPublisher is an optional MarketView extension: views wired into
// an observed simulation (internal/replay) accept instrumentation
// events from the strategy — model-training events
// (engine.KindModelTrained) and degradation-stage transitions
// (engine.KindStage) — and fan them out to the run's observers at the
// current simulated minute.
type EventPublisher interface {
	PublishEvent(engine.Event)
}

// LoadTargeter is an optional MarketView extension: views driven by a
// workload autoscaler (internal/workload) expose the target group
// size the current request load calls for. TargetNodes returns
// (0, false) when no load signal is attached — strategies then fall
// back to the spec's fixed BaseNodes, the paper's world.
type LoadTargeter interface {
	TargetNodes() (int, bool)
}

// TargetNodes returns the group size a strategy should provision for:
// the view's load target when one is attached, the spec's BaseNodes
// otherwise. Every shipped strategy sizes through this, so rival
// bidders resize under an autoscaled replay exactly like Jupiter.
func TargetNodes(view MarketView, spec ServiceSpec) int {
	if lt, ok := view.(LoadTargeter); ok {
		if n, ok := lt.TargetNodes(); ok && n > 0 {
			return n
		}
	}
	return spec.BaseNodes
}

// FailureProber is an optional Strategy extension: strategies that
// estimate per-pool failure probabilities expose the estimates behind
// their latest Decide, keyed by pool. The replay harness's gradual
// resizer uses them to re-verify the Eq. 10 availability bound before
// each scale-down detach; for strategies without the extension it
// falls back to the on-demand failure probability.
type FailureProber interface {
	LastBidFailureProbabilities() map[string]float64
}

// ServiceSpec describes the distributed service being hosted.
type ServiceSpec struct {
	// Type is the base instance type the service runs on: the unit of
	// capacity accounting (one Type node = market.UnitsPerNode units)
	// and the type of every bare-zone pool.
	Type market.InstanceType
	// BaseNodes is the on-demand deployment size (5 in the paper), in
	// nodes of the base type.
	BaseNodes int
	// DataShards is m of the service's quorum regime: 1 for the
	// replicated lock service, 3 for the θ(3,5) storage service.
	DataShards int
}

// QuorumSize returns the quorum for a deployment of n nodes.
func (s ServiceSpec) QuorumSize(n int) int {
	return quorum.RSPaxosQuorumSize(n, s.DataShards)
}

// QuorumUnits returns the quorum over capacity units for a deployment
// with the given total units: the unit-sum generalization of
// QuorumSize, with the m data shards weighted at one base node each.
// For totalUnits = n·UnitsPerNode it is exactly QuorumSize(n) whole
// base nodes.
func (s ServiceSpec) QuorumUnits(totalUnits int) int {
	return quorum.RSPaxosQuorumUnits(totalUnits, s.DataShards*market.UnitsPerNode)
}

// TargetAvailability returns the availability of the baseline
// on-demand deployment: BaseNodes nodes at FP' with the service's
// quorum rule — the constraint the paper's Equation 10 enforces.
func (s ServiceSpec) TargetAvailability() float64 {
	return quorum.AvailabilityEqual(s.BaseNodes, s.QuorumSize(s.BaseNodes), market.OnDemandFailureProbability)
}

// Bid is one pool's bid decision. Zone is the pool key: a bare zone
// name for the base type, "zone/type" otherwise.
type Bid struct {
	Zone  string
	Price market.Money
}

// Decision is a strategy's output for one bidding interval.
type Decision struct {
	// Bids lists the spot bids to place, one per pool.
	Bids []Bid
	// OnDemand lists pools in which to run on-demand instances
	// (baseline strategy, and Jupiter's degraded-mode substitutions).
	OnDemand []string
}

// Strategy decides bids at the start of each bidding interval.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Decide returns the bids for the next interval of the given
	// length in minutes.
	Decide(view MarketView, spec ServiceSpec, intervalMinutes int64) (Decision, error)
}

// Builder constructs a fresh Strategy instance. Sweeps and tournaments
// build one instance per replay cell through a Builder so strategy
// state (model caches, controller integrals) never leaks across runs.
type Builder func() Strategy

// IntervalChooser is an optional Strategy extension: a strategy that
// picks its own next bidding interval, in minutes, from observed market
// conditions — the paper's §5.5 future-work extension ("detect the
// frequency of spot prices fluctuating and change the bidding interval
// correspondingly"). The replay harness consults it before each Decide.
type IntervalChooser interface {
	ChooseInterval(view MarketView, spec ServiceSpec) int64
}
