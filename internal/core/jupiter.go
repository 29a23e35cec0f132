// Package core implements the paper's primary contribution: Jupiter,
// the availability- and cost-aware bidding framework (§4).
//
// At the start of each bidding interval, the online bidding algorithm
// (paper Fig. 3) runs:
//
//  1. For every candidate group size n, invert the service's quorum
//     availability to the equalized per-node failure probability FP that
//     still meets the availability of the on-demand baseline
//     (node_failure_pr).
//  2. For every availability zone, find the minimal bid whose estimated
//     failure probability over the next interval is at most FP, using
//     the semi-Markov spot-instance failure model (internal/smc). Bids
//     are capped at the on-demand price (§4.2).
//  3. Greedily take the n cheapest zones; the bid sum is the cost upper
//     bound for that n (the paper's objective, Equation 8).
//  4. Return the bids of the n with the lowest upper bound.
//
// n runs up from the quorum floor to at most the pool count, and stops at
// the first n whose constraint-(9) floor — the n cheapest current prices
// — reaches the lowest upper bound found: no larger n can win.
//
// When no group size can meet the availability target with spot
// instances, Jupiter falls back to on-demand instances, matching the
// paper's rule of preferring an on-demand instance over an even higher
// spot bid.
//
// This file holds the framework's state, model training and the
// per-pool forecasts; the enumeration itself (steps 1, 3 and 4) is the
// one planner in pools.go, which plans heterogeneous (zone × type) pools
// by capacity and a single-type market as the case where every pool is
// one base node.
package core

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/quorum"
	"repro/internal/smc"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// EstimatorMode selects how the per-zone failure probability under a
// bid is estimated; ModeInterval is the framework's default, the other
// two exist for the ablation benchmarks.
type EstimatorMode int

const (
	// ModeInterval forward-propagates the semi-Markov chain over the
	// bidding interval (the discretized Equation 5) — the default.
	ModeInterval EstimatorMode = iota
	// ModeStationary uses the chain's long-run occupancy, ignoring the
	// current price's position in its sojourn.
	ModeStationary
	// ModeOneStep reads the interval forecast over one minute: the
	// Equation 14 single-time-unit estimate, applied to the whole
	// interval.
	ModeOneStep
)

// Jupiter is the bidding framework. Decide is its one way in: it trains
// one semi-Markov failure model per pool on the history the view has
// observed and retrains weekly as more data arrives, the paper's Fig. 3
// loop. Outside a replay, a cloud.Provider advanced to the decision
// minute is the view.
type Jupiter struct {
	// baseObserver makes the framework an engine.Observer: the replay
	// harness subscribes it to the event stream of chaos-armed runs so
	// OnFault can feed the staged-degradation tracker (health.go).
	baseObserver

	// Mode selects the failure estimator (ablation hook).
	Mode EstimatorMode

	// models is the model provider training is routed through: a
	// private cache until UseModelCache points it at a shared one.
	models *modelcache.Cache
	// retrainEvery is the model-refresh cadence in minutes: weekly, as
	// New sets it; tests shorten it.
	retrainEvery int64

	// zoneModels is this instance's current model per zone plus when it
	// was trained — the retrain-cadence state. The models themselves
	// live in (and may be shared through) the provider.
	zoneModels map[string]zoneModel
	lastBidFPs map[string]float64
	fpCache    map[fpKey]fpVal

	// Planner state (pools.go): the memo of fitUniformFP's
	// bisection paths, the scratch every candidate group of every Decide
	// is evaluated in, and two test hooks, nil in production: fit, the
	// exhaustive bisection every rebid reads in the reference-oracle
	// tests, and priced, which shows the cut's property test each group
	// priced at size W, first bid or rebid.
	fitCache map[string]*fitState
	ws       poolScratch
	fit      func(t int, units []int, target float64) (float64, bool)
	priced   func(W int, cost market.Money, rebid bool)

	// health tracks observed faults for staged degradation. It stays
	// nil until the first OnFault, so runs without a chaos subscription
	// never touch the degradation paths.
	health    *healthTracker
	lastStage degradeStage

	// prov, when set via UseRecorder, receives decision-provenance
	// spans. It stays nil on unobserved runs, where Begin returns a nil
	// trace and every emission site is skipped without building spans.
	prov *provenance.Recorder
}

// baseObserver is engine.BaseObserver under a name that keeps the
// embedded field unexported: Mode is Jupiter's only exported field.
type baseObserver = engine.BaseObserver

// The paper's fixed inputs to every decision: fp0 is the failure
// probability of an instance absent out-of-bid failures (the on-demand
// SLA figure, FP' = 0.01), and trainingWindow is how much history each
// model trains on, in minutes — 13 weeks, the paper's "about three
// months".
const (
	fp0            = market.OnDemandFailureProbability
	trainingWindow = 13 * 7 * 24 * 60
)

// zoneModel is one zone's current model and its training minute.
type zoneModel struct {
	model     *smc.Model
	trainedAt int64
}

// memoCap bounds fpCache and fitCache. Both hold pure functions of
// their keys — a fitCache entry is a prefix of a path its key fixes — so
// a full map is simply dropped and refilled.
const memoCap = 4096

func memoPut[K comparable, V any](m map[K]V, k K, v V) {
	if len(m) >= memoCap {
		clear(m)
	}
	m[k] = v
}

// fpKey caches quorum inversions, which depend only on geometry and
// target availability.
type fpKey struct {
	n, k   int
	target float64
}

type fpVal struct {
	fp  float64
	err bool
}

// New returns a Jupiter with the paper's defaults.
func New() *Jupiter {
	return &Jupiter{
		retrainEvery: 7 * 24 * 60,
		zoneModels:   make(map[string]zoneModel),
		fpCache:      make(map[fpKey]fpVal),
		fitCache:     make(map[string]*fitState),
	}
}

// UseModelCache implements modelcache.Consumer: the replay harness
// calls it to point the framework at the run's shared provider, so
// identical (zone, window) models train once and are served to every
// instance. A shared cache spanning more than one price history requires
// views that implement strategy.TraceIdentifier, so models from
// different histories key apart.
func (j *Jupiter) UseModelCache(c *modelcache.Cache) { j.models = c }

// UseRecorder implements provenance.Consumer: the replay harness calls
// it to collect decision-provenance spans for the run.
func (j *Jupiter) UseRecorder(r *provenance.Recorder) { j.prov = r }

// provider returns the configured shared cache, or a lazily created
// private one.
func (j *Jupiter) provider() *modelcache.Cache {
	if j.models == nil {
		j.models = modelcache.New()
	}
	return j.models
}

// invertFP is quorum.InvertEqualFP with memoization.
func (j *Jupiter) invertFP(n, k int, target float64) (float64, bool) {
	key := fpKey{n: n, k: k, target: target}
	if v, ok := j.fpCache[key]; ok {
		return v.fp, !v.err
	}
	fp, err := quorum.InvertEqualFP(n, k, target)
	memoPut(j.fpCache, key, fpVal{fp: fp, err: err != nil})
	return fp, err == nil
}

// Name implements strategy.Strategy.
func (j *Jupiter) Name() string { return "Jupiter" }

// LastBidFailureProbabilities returns, for the zones chosen by the most
// recent Decide, the estimated per-interval failure probability of each
// placed bid — the heterogeneous p vector the weighted-voting analysis
// (paper §4.1) evaluates.
func (j *Jupiter) LastBidFailureProbabilities() map[string]float64 {
	return maps.Clone(j.lastBidFPs)
}

// OnFault implements engine.Observer: injected faults feed the staged
// degradation tracker. The replay harness subscribes the strategy to
// the event stream only when a chaos scenario is armed, so in clean
// runs this never fires and decisions are untouched.
func (j *Jupiter) OnFault(e engine.Event) {
	if e.Kind != engine.KindFaultInjected {
		return
	}
	if j.health == nil {
		j.health = newHealthTracker(e)
	}
	j.health.observe(e)
}

// publishTrain surfaces a provider miss (an actual training pass) to
// the view's observers, when the view accepts instrumentation events.
func (j *Jupiter) publishTrain(view strategy.MarketView, zone string, now int64, out modelcache.Outcome) {
	if out.Hit {
		return
	}
	pub, ok := view.(strategy.EventPublisher)
	if !ok {
		return
	}
	size := 0
	if out.Incremental {
		size = 1
	}
	pub.PublishEvent(engine.Event{
		Minute: now, Kind: engine.KindModelTrained, Zone: zone,
		Size: size, DurationNanos: out.TrainTime.Nanoseconds(),
	})
}

// publishStage surfaces a degradation-stage transition to the view's
// observers — the attribution ledger reads quarantine evidence from it —
// when the view accepts instrumentation events.
func publishStage(view strategy.MarketView, now int64, stage degradeStage) {
	if pub, ok := view.(strategy.EventPublisher); ok {
		pub.PublishEvent(engine.Event{Minute: now, Kind: engine.KindStage, Fault: stage.String()})
	}
}

// poolBid is a bid on a pool: its minimal adequate bid for some failure
// target, until a rebid moves it.
type poolBid struct {
	pool *poolSnapshot
	bid  market.Money
}

// The planner sorts with slices.SortFunc, which is not stable. It does
// not need to be: every comparator in this package ends in a pool-key
// tiebreak and a Decide lists each pool once, so each order is total and
// the sorted result is the same whatever the algorithm or the input
// permutation (pinned by TestPlannerSortsAreTotalOrders).

// cheapestBidFirst orders bids by price, then pool key.
func cheapestBidFirst(a, b poolBid) int {
	if c := cmp.Compare(a.bid, b.bid); c != 0 {
		return c
	}
	return strings.Compare(a.pool.zone, b.pool.zone)
}

// byBidZone orders a decision's bids by pool key.
func byBidZone(a, b strategy.Bid) int { return strings.Compare(a.Zone, b.Zone) }

// poolSnapshot is one pool's failure estimator for the current
// interval, shared across all group sizes of a Decide. zone holds the
// pool key — the bare zone name for base-type pools, "zone/type"
// otherwise — and every lookup downstream (models, prices, quarantine)
// is keyed by it. units is the pool's integer capacity
// (market.UnitsPerNode for a base-type pool), filled in by the planner.
type poolSnapshot struct {
	zone   string
	minBid func(target float64) (market.Money, bool)
	fpOf   func(bid market.Money) float64
	cur    market.Money
	units  int
}

// buildPoolSnapshots assembles the per-pool estimators for one Decide.
//
// A sequential pass in pool order does everything that touches the
// market view or this instance's state: the quarantine filter, the
// retrain-cadence check and the current-price reads (MarketView
// implementations are not required to be goroutine-safe). A pool whose
// model is due for (re)training leaves that pass with a nil model.
//
// Who runs the rest is read off that pass. When some pool is due — a
// retrain minute — training through the provider and the forecast, the
// semi-Markov DP that dominates such a minute, fan out over a worker
// pool bounded by GOMAXPROCS. When none is, every forecast is a
// convolution against profiles the model already holds, a few
// microseconds each, and they run inline on the caller: a warm Decide
// starts no goroutine. Results land in pool order either way.
//
// The provider is safe for concurrent use and a Decide asks it for one
// key per pool, so no two workers share a series; the history fetch
// stays lazy (only on a provider miss, and only from the minute the
// provider names — the week a continuing series has not read) and is
// serialised by a Decide-local mutex, taken inside the provider's series
// lock, so PriceHistory calls never overlap. Each forecast build draws
// its per-minute scratch from a pool smc shares across models, so a
// worker allocates only the profile table its model keeps.
//
// Everything whose order is observable happens after the workers are
// done, in pool order: KindModelTrained events, the retrain-cadence
// update, a deferred price-read error, and the spans. dt, when non-nil,
// receives one SpanPool per pool considered — first the pools that never
// reach a forecast (quarantined, no-history), then the build outcomes
// (forecast-failed, ok) — exactly the order the sequential
// train-then-read loop used to emit them in.
func (j *Jupiter) buildPoolSnapshots(view strategy.MarketView, spec strategy.ServiceSpec, zones []string, now, intervalMinutes int64, dt *provenance.DecisionTrace) ([]*poolSnapshot, error) {
	type zoneWork struct {
		zone    string
		skip    string     // why the pool reaches no forecast: "quarantined" or "no-history"
		model   *smc.Model // nil after the sequential pass: due for training, the worker's job
		cur, od market.Money
		age     int64
		readErr error // a failed price read: fatal in pool order, unless the pool has no history

		trained bool // the worker went to the provider, with this outcome
		outcome modelcache.Outcome
	}
	work := make([]zoneWork, len(zones))
	retrain := false // some pool is due for training
	for i, z := range zones {
		w := &work[i]
		w.zone = z
		if j.health != nil && j.health.quarantinedKey(z, now) {
			w.skip = "quarantined" // after faults; re-probed once the backoff expires
			continue
		}
		if zm, ok := j.zoneModels[z]; ok && now-zm.trainedAt < j.retrainEvery {
			w.model = zm.model
		} else {
			retrain = true
		}
		if w.cur, w.readErr = view.SpotPrice(z); w.readErr == nil {
			if w.age, w.readErr = view.SpotPriceAge(z); w.readErr == nil {
				w.od, w.readErr = market.PoolOnDemandPrice(z, spec.Type)
			}
		}
	}

	// Training goes through the provider. The per-pool cadence state (what
	// this instance uses, trained when) stays local to the instance; the
	// training itself is keyed on (trace, pool, window) in the provider, so
	// concurrent framework instances over the same history share one
	// estimation pass.
	models := j.provider()
	key := modelcache.Key{From: now - trainingWindow, Until: now}
	if ti, ok := view.(strategy.TraceIdentifier); ok {
		key.Trace = ti.TraceFingerprint()
	}
	var histMu sync.Mutex
	train := func(w *zoneWork) {
		k := key
		k.Zone = w.zone
		var err error
		w.model, w.outcome, err = models.GetFrom(k, func(since int64) (*trace.Trace, error) {
			histMu.Lock()
			defer histMu.Unlock()
			return view.PriceHistory(w.zone, since, k.Until)
		})
		if err != nil {
			w.skip = "no-history" // pool unusable this round
			return
		}
		w.trained = true
	}

	build := func(w *zoneWork) *poolSnapshot {
		if w.model == nil {
			train(w)
		}
		if w.skip != "" || w.readErr != nil {
			return nil
		}
		var f *smc.Forecast
		var err error
		switch j.Mode {
		case ModeStationary:
			f, err = w.model.Stationary()
		case ModeOneStep:
			f, err = w.model.Forecast(w.cur, w.age, 1)
		default:
			f, err = w.model.Forecast(w.cur, w.age, intervalMinutes)
		}
		if err != nil {
			return nil // zone unusable this round
		}
		fc, od := f, w.od
		return &poolSnapshot{
			zone: w.zone,
			minBid: func(target float64) (market.Money, bool) {
				return fc.MinimalBid(target, fp0, od)
			},
			fpOf: func(bid market.Money) float64 {
				return fc.FailureProbability(bid, fp0)
			},
			cur: w.cur,
		}
	}

	built := make([]*poolSnapshot, len(work))
	if workers := min(runtime.GOMAXPROCS(0), len(work)); workers <= 1 || !retrain {
		for i := range work {
			if work[i].skip == "" {
				built[i] = build(&work[i])
			}
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					built[i] = build(&work[i])
				}
			}()
		}
		for i := range work {
			if work[i].skip == "" {
				idx <- i
			}
		}
		close(idx)
		wg.Wait()
	}

	for i := range work {
		w := &work[i]
		if w.skip != "" {
			if dt != nil {
				dt.Emit(provenance.Span{Kind: provenance.SpanPool, Pool: w.zone, Outcome: w.skip})
			}
			continue
		}
		if w.trained {
			j.publishTrain(view, w.zone, now, w.outcome)
			j.zoneModels[w.zone] = zoneModel{model: w.model, trainedAt: now}
		}
		if w.readErr != nil {
			return nil, w.readErr
		}
	}
	states := built[:0]
	for i, st := range built {
		if work[i].skip != "" {
			continue
		}
		if st == nil {
			if dt != nil {
				dt.Emit(provenance.Span{Kind: provenance.SpanPool, Pool: work[i].zone, Outcome: "forecast-failed"})
			}
			continue
		}
		if dt != nil {
			dt.Emit(provenance.Span{Kind: provenance.SpanPool, Pool: st.zone, Outcome: "ok", CurMicroUSD: int64(st.cur)})
		}
		states = append(states, st)
	}
	return states, nil
}

// Decide implements strategy.Strategy — the Fig. 3 online bidding
// algorithm. Every view, single-type or not, is planned by decidePools.
func (j *Jupiter) Decide(view strategy.MarketView, spec strategy.ServiceSpec, intervalMinutes int64) (strategy.Decision, error) {
	if intervalMinutes <= 0 {
		return strategy.Decision{}, fmt.Errorf("core: interval %d <= 0", intervalMinutes)
	}
	return j.decidePools(view, spec, intervalMinutes)
}
