// Package replay drives a bidding strategy over a spot-price trace
// under the simulated EC2 control plane, accounting cost (per the §2.1
// billing rules) and service availability (quorum evaluation of the
// live instance set, minute by minute) — the paper's §5.5 trace-replay
// methodology: "as cost and availability of a spot instance are
// certained with the given spot prices data, the result is the same as
// real running the bidding framework".
//
// One kernel drives a replay (kernel_event.go): it subscribes to the
// provider's discrete-event stream and only wakes at interesting
// minutes — decision points, interval boundaries, and the end of
// accounting — integrating availability from quorum up/down
// transitions instead of polling every minute. The original
// minute-by-minute loop survives only as the test oracle the kernel is
// verified against bit for bit (kernel_polling_test.go).
package replay

import (
	"fmt"
	"sync"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes one replay run.
type Config struct {
	// Traces supplies the per-zone price histories, including a
	// training prefix before Start.
	Traces *trace.Set
	// Start is the minute the replayed service goes live. History in
	// [Traces.Start, Start) is visible to the strategy for training.
	Start int64
	// End is the exclusive end of accounting. Zero means the default,
	// Traces.End - 1: the last minute the provider can simulate, since
	// prices are defined over [Traces.Start, Traces.End) and the replay
	// evaluates the final accounted minute End-1 inside that span.
	// Explicit values must satisfy Start < End <= Traces.End - 1;
	// anything else is rejected by Run.
	End int64
	// Spec describes the hosted service.
	Spec strategy.ServiceSpec
	// Strategy decides the bids.
	Strategy strategy.Strategy
	// IntervalMinutes is the bidding interval (the paper sweeps 1, 3,
	// 6, 9, 12 hours).
	IntervalMinutes int64
	// Seed drives startup jitter and failure injection.
	Seed uint64
	// InjectHardwareFailures enables the FP' = 0.01 outage model.
	InjectHardwareFailures bool
	// PersistentRequests uses EC2 persistent spot requests instead of
	// one-shot launches: a zone whose instance is reclaimed mid-interval
	// relaunches automatically when the price returns below the bid
	// (auto-heal ablation; the paper's framework uses one-shot bids).
	PersistentRequests bool
	// Observers receive the simulation event stream: instance
	// lifecycle, out-of-bid reclaims, outages, billing closures from
	// the provider, plus the replay's own bidding decisions, service
	// quorum up/down transitions, and model-provider training events.
	// Hooks run synchronously at the exact simulated minute; they must
	// not mutate the run.
	Observers []engine.Observer
	// Chaos, when set, arms the fault-injection layer with this
	// scenario: price-spike injectors rewrite the replayed traces,
	// blackout/storm injectors become scheduled provider actions,
	// request injectors gate spot launches, and trace gaps make the
	// strategy's market view serve stale observations. A strategy that
	// implements engine.Observer is additionally subscribed to the
	// event stream so it can react to injected faults. Nil (the
	// default) leaves the run untouched; a non-nil scenario with zero
	// injectors is bit-identical to nil.
	Chaos *chaos.Scenario
	// ChaosSeed overrides the scenario's own seed when non-zero, so
	// one scenario file can be re-rolled without editing it.
	ChaosSeed uint64
	// Models, when set, is the shared price-model provider handed to
	// the strategy (any strategy implementing modelcache.Consumer —
	// Jupiter and its wrappers do). Point every run of a sweep at one
	// cache so identical (zone, training-window) models are estimated
	// once and shared; the cache is safe for concurrent runs. Leave nil
	// for strategy-private caching.
	Models *modelcache.Cache
	// Spans, when set, is the decision-provenance recorder handed to
	// the strategy (any strategy implementing provenance.Consumer —
	// Jupiter and its wrappers do). Unlike Models, a recorder belongs
	// to ONE run; sweeps allocate one per cell and stamp/merge after.
	Spans *provenance.Recorder
	// Workload, when set, drives traffic-driven autoscaling: the
	// requests/sec trace is mapped to a target group-size plan by
	// workload.DefaultAutoscaler(Spec.BaseNodes), every strategy
	// decision sizes for the target ruling at its
	// minute, and between interval boundaries the fleet resizes
	// gradually — scale-ups join quorum only after their startup delay,
	// scale-downs detach one member at a time with the Eq. 10
	// availability bound re-verified before each step (see resize.go).
	// A workload whose plan never leaves Spec.BaseNodes — or a nil
	// Workload — leaves the run bit-identical to the fixed-n path.
	Workload *workload.Trace
}

// leadMinutes is how long before each interval boundary decisions are
// made and replacement instances launched (make-before-break, §4); it
// exceeds the worst startup delay.
const leadMinutes = 15

// Result is the outcome of a replay. Its scalars are a replay cell's
// record in the run manifest; the series stays out of it.
type Result struct {
	Strategy        string `json:"strategy"`
	IntervalMinutes int64  `json:"interval_minutes"`
	// Cost is the total bill across all instances ever launched.
	Cost market.Money `json:"cost_microusd"`
	// Availability is the fraction of accounted minutes the service
	// had a live quorum.
	Availability   float64 `json:"availability"`
	TotalMinutes   int64   `json:"total_minutes"`
	DownMinutes    int64   `json:"down_minutes"`
	Decisions      int     `json:"decisions"`
	OutOfBid       int     `json:"out_of_bid"`      // provider-terminated instances
	FailedRequests int     `json:"failed_requests"` // bids below market at request time
	OnDemandLaunch int     `json:"on_demand_launches"`
	SpotLaunch     int     `json:"spot_launches"`
	MeanGroupSize  float64 `json:"mean_group_size"`
	MaxGroupSize   int     `json:"max_group_size"`
	// Series records one row per bidding interval, for time-series
	// inspection and plotting.
	Series []IntervalStats `json:"-"`
}

// IntervalStats is the per-interval slice of a replay: when the
// interval starts, how long it is, the group size decided for it, and
// the quorum's downtime within it. It carries no cost; the bill is the
// Result's, and the manifest's attribution splits it by pool.
type IntervalStats struct {
	StartMinute     int64
	IntervalMinutes int64
	GroupSize       int
	DownMinutes     int64
}

// marketView adapts the provider to the strategy's view interface. It
// also implements the optional strategy.TraceIdentifier and
// strategy.EventPublisher extensions: the replayed trace set's
// fingerprint keys shared model caches, and strategy instrumentation
// events (model training, degradation stages) reach the run's observers.
type marketView struct {
	p           *cloud.Provider
	fingerprint *traceFingerprint
	obs         engine.Fanout
	// chaos, when armed, rewrites observations inside injected trace
	// gaps: the pre-gap price with growing age, history clamped to the
	// gap start. Nil outside chaos runs.
	chaos *chaos.Engine
	// load, when armed, carries the workload autoscaler's target group
	// size (strategy.LoadTargeter). Nil outside autoscaled runs, so the
	// fixed-n path reports no target and strategies keep sizing by
	// Spec.BaseNodes.
	load *loadTarget
}

func (v marketView) Now() int64      { return v.p.Now() }
func (v marketView) Zones() []string { return v.p.Zones() }
func (v marketView) SpotPrice(zone string) (market.Money, error) {
	if v.chaos != nil {
		if price, _, stale, err := v.chaos.StalePrice(v.p, zone, v.p.Now()); stale || err != nil {
			return price, err
		}
	}
	return v.p.SpotPrice(zone)
}
func (v marketView) SpotPriceAge(zone string) (int64, error) {
	if v.chaos != nil {
		if _, age, stale, err := v.chaos.StalePrice(v.p, zone, v.p.Now()); stale || err != nil {
			return age, err
		}
	}
	return v.p.SpotPriceAge(zone)
}
func (v marketView) PriceHistory(zone string, from, to int64) (*trace.Trace, error) {
	if v.chaos != nil {
		if gapStart, ok := v.chaos.GapAt(zone, v.p.Now()); ok && to > gapStart {
			to = gapStart
		}
	}
	return v.p.PriceHistory(zone, from, to)
}
func (v marketView) TraceFingerprint() uint64 { return v.fingerprint.get() }

// traceFingerprint is the identity of the replayed price history —
// trace.Set.Fingerprint, a hash over every price point, perturbed by
// the chaos scenario's salt — computed when a strategy first asks for
// it: most strategies never do.
type traceFingerprint struct {
	once   sync.Once
	traces *trace.Set
	salt   uint64
	value  uint64
}

func (f *traceFingerprint) get() uint64 {
	f.once.Do(func() { f.value = f.traces.Fingerprint() ^ f.salt })
	return f.value
}

// TargetNodes implements strategy.LoadTargeter: the autoscaler's
// current target when a workload plan is armed, no target otherwise.
func (v marketView) TargetNodes() (int, bool) {
	if v.load == nil {
		return 0, false
	}
	return v.load.n, true
}
func (v marketView) PublishEvent(e engine.Event) {
	v.obs.Publish(e)
}

// member is one node slot of the service during an interval.
type member struct {
	zone     string
	bid      market.Money // zero for on-demand
	onDemand bool
	id       cloud.InstanceID // empty if the request failed
	reqID    cloud.RequestID  // persistent-request mode only
}

// run is the state of one replay, built by newRun and driven by the
// kernel.
type run struct {
	cfg      Config
	end      int64
	provider *cloud.Provider
	view     marketView
	res      *Result

	fleet        []member // membership being served and accounted now
	pending      []member // next interval's membership (launched early)
	retiring     []cloud.InstanceID
	retiringReqs []cloud.RequestID
	allInstances []cloud.InstanceID
	allRequests  []cloud.RequestID
	groupSizeSum int

	// resize, when armed, is the gradual-resize state machine driven by
	// the workload autoscaler plan (resize.go). Nil on the fixed-n
	// path.
	resize *resizer

	// userObs carries the replay-level events (decisions, quorum
	// transitions) to the configured observers; provider-level events
	// reach them through Provider.Subscribe.
	userObs engine.Fanout
}

// Run executes the replay.
func Run(cfg Config) (*Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.runEvent(); err != nil {
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return r.res, nil
}

// SpecTypeError refuses a spec whose type is not the trace set's base
// type, the type its pool keys are relative to (market.PoolKey). Over a
// set with no pool of the spec's type, an unchecked replay places no
// instance and reports $0 at availability 0 as if it had run.
type SpecTypeError struct {
	Traces, Spec market.InstanceType
}

func (e *SpecTypeError) Error() string {
	return fmt.Sprintf("replay: trace set holds %s pools, spec needs %s", e.Traces, e.Spec)
}

// newRun validates cfg and builds the run: the (chaos-transformed)
// provider, the strategy's market view, and the resize state machine
// when a workload plan moves the group size. Nothing has advanced yet.
func newRun(cfg Config) (*run, error) {
	if cfg.Traces == nil || cfg.Strategy == nil {
		return nil, fmt.Errorf("replay: traces and strategy are required")
	}
	if cfg.IntervalMinutes <= 0 {
		return nil, fmt.Errorf("replay: interval %d <= 0", cfg.IntervalMinutes)
	}
	if cfg.Traces.Type != cfg.Spec.Type {
		return nil, &SpecTypeError{Traces: cfg.Traces.Type, Spec: cfg.Spec.Type}
	}
	end := cfg.End
	switch {
	case end == 0:
		// Default: the last simulable minute. The final accounted
		// minute is end-1, which must stay inside the trace span
		// [Traces.Start, Traces.End).
		end = cfg.Traces.End - 1
	case end < 0:
		return nil, fmt.Errorf("replay: negative end %d", end)
	case end > cfg.Traces.End-1:
		return nil, fmt.Errorf("replay: end %d beyond last simulable minute %d (trace ends at %d)",
			end, cfg.Traces.End-1, cfg.Traces.End)
	}
	if cfg.Start-leadMinutes < cfg.Traces.Start {
		return nil, fmt.Errorf("replay: start %d leaves no room for lead %d", cfg.Start, leadMinutes)
	}
	if end <= cfg.Start {
		return nil, fmt.Errorf("replay: empty accounting window [%d, %d)", cfg.Start, end)
	}

	if cfg.Models != nil {
		if c, ok := cfg.Strategy.(modelcache.Consumer); ok {
			c.UseModelCache(cfg.Models)
		}
	}
	if cfg.Spans != nil {
		if c, ok := cfg.Strategy.(provenance.Consumer); ok {
			c.UseRecorder(cfg.Spans)
		}
	}
	traces := cfg.Traces
	var chaosEng *chaos.Engine
	if cfg.Chaos != nil {
		var cerr error
		chaosEng, cerr = chaos.New(*cfg.Chaos, cfg.ChaosSeed, cfg.Start)
		if cerr != nil {
			return nil, cerr
		}
		if traces, cerr = chaosEng.TransformTraces(cfg.Traces); cerr != nil {
			return nil, cerr
		}
	}
	provider := cloud.NewProvider(traces, cloud.Config{
		Seed:                   cfg.Seed,
		InjectHardwareFailures: cfg.InjectHardwareFailures,
	})
	fingerprint := &traceFingerprint{traces: traces}
	if chaosEng != nil {
		fingerprint.salt = chaosEng.FingerprintSalt()
		chaosEng.Arm(provider)
		// Let a fault-aware strategy (Jupiter's staged degradation)
		// watch the stream it must react to.
		if obs, ok := cfg.Strategy.(engine.Observer); ok {
			provider.Subscribe(obs)
		}
	}
	userObs := engine.Fanout(cfg.Observers)
	r := &run{
		cfg:      cfg,
		end:      end,
		provider: provider,
		view:     marketView{p: provider, fingerprint: fingerprint, obs: userObs, chaos: chaosEng},
		res:      &Result{Strategy: cfg.Strategy.Name(), IntervalMinutes: cfg.IntervalMinutes},
		userObs:  userObs,
	}
	if cfg.Workload != nil {
		wl := cfg.Workload
		if chaosEng != nil {
			wl = chaosEng.TransformWorkload(wl)
		}
		plan, perr := workload.DefaultAutoscaler(cfg.Spec.BaseNodes).Plan(wl)
		if perr != nil {
			return nil, perr
		}
		// A plan that holds the spec's own size forever is the fixed-n
		// world: arming nothing keeps the run byte-identical to a
		// workload-less one.
		if !plan.Holds(cfg.Spec.BaseNodes) {
			r.view.load = &loadTarget{n: cfg.Spec.BaseNodes}
			r.resize = newResizer(r, plan)
		}
	}
	return r, nil
}

// chooseInterval consults the strategy when it adapts its own bidding
// interval (the §5.5 extension), else uses the configured one.
func (r *run) chooseInterval() int64 {
	if ic, ok := r.cfg.Strategy.(strategy.IntervalChooser); ok {
		// Intervals shorter than twice the decision lead cannot be
		// scheduled; fall back to the configured one then.
		if iv := ic.ChooseInterval(r.view, r.cfg.Spec); iv > 2*leadMinutes {
			return iv
		}
	}
	return r.cfg.IntervalMinutes
}

// decideAndLaunch plans the next interval (make-before-break): new
// instances launch immediately so they are running by the boundary,
// but the service keeps running on the current fleet until then.
// It returns the length of the interval the decision covers.
func (r *run) decideAndLaunch() (int64, error) {
	interval := r.chooseInterval()
	decision, err := r.cfg.Strategy.Decide(r.view, r.cfg.Spec, interval)
	if err != nil {
		return 0, err
	}
	r.res.Decisions++
	// Index current live instances by zone for reuse.
	current := map[string]member{}
	for _, mb := range r.fleet {
		current[mb.zone] = mb
	}
	var next []member
	keep := map[cloud.InstanceID]bool{}
	launch := r.launchMember
	keepReq := map[cloud.RequestID]bool{}
	for _, b := range decision.Bids {
		mb := member{zone: b.Zone, bid: b.Price}
		// An existing instance is kept when its bid already covers
		// the new decision: spot charges follow the market price,
		// not the bid, so a higher standing bid costs nothing extra
		// and only replacement-worthy changes force a relaunch.
		cur, ok := current[b.Zone]
		switch {
		case ok && !cur.onDemand && cur.reqID != "" && cur.bid >= b.Price:
			// A persistent request auto-heals; keep it even if its
			// instance is momentarily out of bid.
			mb.reqID = cur.reqID
			mb.bid = cur.bid
			keepReq[cur.reqID] = true
		case ok && !cur.onDemand && cur.reqID == "" && cur.bid >= b.Price && cur.id != "" && r.provider.Alive(cur.id):
			mb.id = cur.id
			mb.bid = cur.bid
			keep[cur.id] = true
		default:
			mb = launch(mb)
		}
		next = append(next, mb)
	}
	for _, z := range decision.OnDemand {
		mb := member{zone: z, onDemand: true}
		if cur, ok := current[z]; ok && cur.onDemand && cur.id != "" {
			inst, ierr := r.provider.Instance(cur.id)
			if ierr == nil && inst.State != cloud.Terminated {
				mb.id = cur.id
				keep[cur.id] = true
			} else {
				mb = launch(mb)
			}
		} else {
			mb = launch(mb)
		}
		next = append(next, mb)
	}
	// Instances not carried forward retire at the interval boundary.
	r.retiring = r.retiring[:0]
	r.retiringReqs = r.retiringReqs[:0]
	for _, mb := range r.fleet {
		if mb.reqID != "" && !keepReq[mb.reqID] {
			r.retiringReqs = append(r.retiringReqs, mb.reqID)
			continue
		}
		if mb.id != "" && !keep[mb.id] {
			r.retiring = append(r.retiring, mb.id)
		}
	}
	r.pending = next
	r.groupSizeSum += len(next)
	if len(next) > r.res.MaxGroupSize {
		r.res.MaxGroupSize = len(next)
	}
	if r.userObs.Active() {
		r.userObs.Publish(engine.Event{
			Minute: r.provider.Now(), Kind: engine.KindDecision, Size: len(next),
		})
	}
	return interval, nil
}

// launchMember requests one member's capacity from the provider — an
// on-demand instance, a persistent spot request, or a one-shot spot
// instance — recording launch accounting. The returned member carries
// the acquired ID, or none when the request failed.
func (r *run) launchMember(mb member) member {
	if mb.onDemand {
		id, err := r.provider.RequestOnDemand(mb.zone, r.cfg.Spec.Type)
		if err == nil {
			mb.id = id
			r.allInstances = append(r.allInstances, id)
			r.res.OnDemandLaunch++
		}
		return mb
	}
	if r.cfg.PersistentRequests {
		reqID, err := r.provider.RequestSpotPersistent(mb.zone, r.cfg.Spec.Type, mb.bid)
		if err != nil {
			r.res.FailedRequests++
			return mb
		}
		mb.reqID = reqID
		r.allRequests = append(r.allRequests, reqID)
		r.res.SpotLaunch++
		return mb
	}
	id, err := r.provider.RequestSpot(mb.zone, r.cfg.Spec.Type, mb.bid)
	if err != nil {
		r.res.FailedRequests++
		mb.id = ""
		return mb
	}
	mb.id = id
	r.allInstances = append(r.allInstances, id)
	r.res.SpotLaunch++
	return mb
}

// retire terminates the instances and cancels the requests displaced by
// the latest decision; called at the interval boundary.
func (r *run) retire() error {
	for _, id := range r.retiring {
		if err := r.provider.Terminate(id); err != nil {
			return err
		}
	}
	for _, rid := range r.retiringReqs {
		if err := r.provider.CancelSpotRequest(rid, true); err != nil {
			return err
		}
	}
	r.retiring = r.retiring[:0]
	r.retiringReqs = r.retiringReqs[:0]
	return nil
}

// finish closes every bill and totals the result. Final accounting:
// user-terminate everything still running so the bill closes, then
// total the charges.
func (r *run) finish() error {
	res := r.res
	for _, rid := range r.allRequests {
		if err := r.provider.CancelSpotRequest(rid, false); err != nil {
			return err
		}
		hist, err := r.provider.RequestHistory(rid)
		if err != nil {
			return err
		}
		r.allInstances = append(r.allInstances, hist...)
	}
	for _, id := range r.provider.LiveInstances() {
		if err := r.provider.Terminate(id); err != nil {
			return err
		}
	}
	for _, id := range r.allInstances {
		c, err := r.provider.Charge(id)
		if err != nil {
			return err
		}
		res.Cost += c
		inst, err := r.provider.Instance(id)
		if err != nil {
			return err
		}
		if inst.Spot && inst.State == cloud.Terminated && inst.Cause == market.TerminatedByProvider {
			res.OutOfBid++
		}
	}
	res.Availability = 1 - float64(res.DownMinutes)/float64(res.TotalMinutes)
	if res.Decisions > 0 {
		res.MeanGroupSize = float64(r.groupSizeSum) / float64(res.Decisions)
	}
	return nil
}

// emitQuorum publishes a quorum transition to the configured observers.
func (r *run) emitQuorum(minute int64, down bool, live int) {
	if !r.userObs.Active() {
		return
	}
	kind := engine.KindQuorumUp
	if down {
		kind = engine.KindQuorumDown
	}
	r.userObs.Publish(engine.Event{Minute: minute, Kind: kind, Size: live})
}
