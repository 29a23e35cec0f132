// Package cloud simulates the Amazon EC2 control plane the bidding
// framework talks to: spot instance requests matched against per-zone
// price processes, out-of-bid termination, startup delays of 200–700
// seconds (Mao & Humphrey, paper [25]), on-demand instances with the
// SLA-implied failure model, spot price history queries, and billing
// per the §2.1 charging rules.
//
// Time is in minutes (the semi-Markov model's unit) and advances only
// through AdvanceTo, making every replay deterministic.
//
// Internally the provider is a discrete-event simulator on the
// internal/engine kernel: every future state transition — startup
// completion, out-of-bid reclaim (computed from the price trace's
// change points), outage healing, persistent-request relaunch — is a
// scheduled timer, and AdvanceTo jumps from event to event instead of
// scanning every minute. The only minute-granular work left is the
// hardware-failure model, whose per-minute Bernoulli draws are the
// model itself: they are preserved exactly (same RNG consumption, in
// instance-creation order) so that results are bit-identical to the
// original minute-stepping implementation, and made in one tight loop
// per stretch of minutes between two scheduled transitions. Observers subscribed via
// Subscribe receive a typed event at the exact simulated minute of
// every transition.
package cloud

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/stats"
	"repro/internal/trace"
)

// InstanceID identifies a virtual machine instance.
type InstanceID string

// Lifecycle is an instance's state.
type Lifecycle int

const (
	// Pending: requested, still starting up.
	Pending Lifecycle = iota
	// Running: booted and serving.
	Running
	// Terminated: gone, by the provider or the user.
	Terminated
)

// String renders the lifecycle state.
func (l Lifecycle) String() string {
	switch l {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Terminated:
		return "terminated"
	default:
		return fmt.Sprintf("lifecycle(%d)", int(l))
	}
}

// Instance is one virtual machine.
type Instance struct {
	ID   InstanceID
	Zone string
	Type market.InstanceType
	Spot bool
	Bid  market.Money // spot only

	State        Lifecycle
	RequestedAt  int64
	RunningAt    int64 // when startup completes
	TerminatedAt int64
	Cause        market.Termination // valid when Terminated

	// downUntil > minute means a hardware/software outage is in
	// progress (the SLA failure model), independent of billing.
	downUntil int64

	// outAt is the precomputed minute the market first leaves the bid
	// behind (engine.NoMinute if never within the trace): the price is
	// piecewise-constant, so the out-of-bid transition can only happen
	// at a change point and is known the moment the bid is placed.
	outAt int64
	// req is the owning persistent spot request, nil for one-shot
	// launches.
	req *spotRequest
}

// timer kinds for the provider's transition queue. Priorities encode
// the original per-minute processing order within a minute: scheduled
// control-plane actions (the chaos layer's fault applications) run
// first, then an out-of-bid reclaim is checked before a startup
// completion (a pending request whose bid the market left at its
// startup minute never runs), and both precede outage healing.
type timerKind uint8

const (
	tAction timerKind = iota
	tOutOfBid
	tPromote
	tOutageEnd
)

type timer struct {
	kind timerKind
	inst *Instance
	// until validates tOutageEnd: the timer is stale if the instance's
	// downUntil has moved since it was scheduled.
	until int64
	// fn is the callback of a tAction timer.
	fn func()
}

// Provider is the simulated control plane over a fixed price trace set.
type Provider struct {
	traces *trace.Set
	// zones is the sorted pool keys of traces, listed once: strategies
	// ask for them on every decision.
	zones  []string
	now    int64
	rng    *stats.RNG
	nextID int64

	// cursors memoize the last price lookup per zone: the simulation
	// clock only moves forward, so SpotPrice/SpotPriceAge and the
	// refulfilment scan hit the next point in O(1) instead of a binary
	// search per call (see trace.Cursor).
	cursors map[string]*trace.Cursor

	instances map[InstanceID]*Instance
	// active holds non-terminated instances in creation order, which is
	// also ID order — the deterministic iteration order for hazard
	// draws and LiveInstances.
	active      []*Instance
	activeDirty bool
	// drawSet is drawSpan's reused list of the instances drawing
	// through a hazard-only span.
	drawSet []*Instance

	// timers holds every scheduled future transition.
	timers engine.Queue[timer]

	// Persistent spot requests (requests.go), in creation order.
	requests     map[RequestID]*spotRequest
	requestOrder []RequestID
	// refulfilNext is the earliest minute any unfulfilled persistent
	// request could relaunch (engine.NoMinute when none is waiting).
	refulfilNext int64

	observers engine.Fanout

	// Hardware failure injection (FP' model). Disabled when hazard = 0.
	hazardPerMinute float64
	mttrMinutes     int64

	// zoneDownUntil marks zones in a capacity outage (all instances
	// killed, launches refused) until the recorded minute (exclusive).
	// Nil outside chaos runs — the zero-injector fast path touches none
	// of this state.
	zoneDownUntil map[string]int64
	// launchGate, when installed, is consulted by the user-facing launch
	// calls; it can drop a request outright or stretch its startup.
	launchGate func(minute int64, zone string, spot bool) GateDecision
}

// GateDecision is a launch gate's verdict on one request.
type GateDecision struct {
	// Drop refuses the request: the control plane "loses" it and the
	// caller gets an error, exactly like a bid below market.
	Drop bool
	// DelayMinutes stretches the instance's startup by this much.
	DelayMinutes int64
}

// Config tunes the provider.
type Config struct {
	Seed uint64
	// InjectHardwareFailures enables the SLA failure model (FP' = 0.01)
	// on every instance, spot and on-demand alike.
	InjectHardwareFailures bool
}

// mttr and hazard chosen so steady-state unavailability matches the
// paper's FP' = 0.01: h·MTTR / (1 + h·MTTR) = 0.01.
const (
	defaultMTTR   = 30
	defaultHazard = 0.01 / (0.99 * defaultMTTR)
)

// NewProvider builds a provider over the trace set; simulated time
// starts at the set's start minute.
func NewProvider(traces *trace.Set, cfg Config) *Provider {
	p := &Provider{
		traces:       traces,
		zones:        traces.Zones(),
		now:          traces.Start,
		rng:          stats.NewRNG(cfg.Seed),
		instances:    make(map[InstanceID]*Instance),
		cursors:      make(map[string]*trace.Cursor, len(traces.ByZone)),
		refulfilNext: engine.NoMinute,
	}
	if cfg.InjectHardwareFailures {
		p.hazardPerMinute = defaultHazard
		p.mttrMinutes = defaultMTTR
	}
	return p
}

// Subscribe registers an observer for the provider's event stream:
// instance lifecycle, out-of-bid reclaims, outages, request
// fulfilments, and billing closures, delivered synchronously at the
// exact simulated minute of each transition.
func (p *Provider) Subscribe(o engine.Observer) {
	p.observers = append(p.observers, o)
}

// Now returns the current simulated minute.
func (p *Provider) Now() int64 { return p.now }

// End returns the last simulable minute (exclusive).
func (p *Provider) End() int64 { return p.traces.End }

// Zones lists the zones with price feeds, sorted. The slice is the
// caller's own.
func (p *Provider) Zones() []string { return slices.Clone(p.zones) }

// SpotPrice returns the current spot price in a zone.
func (p *Provider) SpotPrice(zone string) (market.Money, error) {
	c, err := p.cursor(zone)
	if err != nil {
		return 0, err
	}
	return c.PriceAt(p.now), nil
}

// cursor returns the zone's memoized price cursor, creating it on first
// use.
func (p *Provider) cursor(zone string) (*trace.Cursor, error) {
	if c, ok := p.cursors[zone]; ok {
		return c, nil
	}
	t, ok := p.traces.ByZone[zone]
	if !ok {
		return nil, fmt.Errorf("cloud: unknown zone %q", zone)
	}
	c := trace.NewCursor(t)
	p.cursors[zone] = c
	return c, nil
}

// SpotPriceAt returns the zone's spot price at a past minute — what an
// observer who stopped receiving updates then would still be seeing.
func (p *Provider) SpotPriceAt(zone string, minute int64) (market.Money, error) {
	t, ok := p.traces.ByZone[zone]
	if !ok {
		return 0, fmt.Errorf("cloud: unknown zone %q", zone)
	}
	if minute > p.now {
		minute = p.now // never the future
	}
	return t.PriceAt(minute), nil
}

// SpotPriceAgeAt returns how long the price ruling at a past minute had
// held at that minute.
func (p *Provider) SpotPriceAgeAt(zone string, minute int64) (int64, error) {
	t, ok := p.traces.ByZone[zone]
	if !ok {
		return 0, fmt.Errorf("cloud: unknown zone %q", zone)
	}
	if minute > p.now {
		minute = p.now
	}
	return t.AgeAt(minute), nil
}

// SpotPriceAge returns how many minutes the current price has held, a
// direct input to the semi-Markov failure estimator.
func (p *Provider) SpotPriceAge(zone string) (int64, error) {
	c, err := p.cursor(zone)
	if err != nil {
		return 0, err
	}
	return c.AgeAt(p.now), nil
}

// PriceHistory returns a view of a zone's prices over [from, to), both
// ends clamped into [Start, now]: a (*trace.Trace).Window, one header
// whatever the length. The bidding framework trains its failure model on this,
// exactly as the paper's prototype polled EC2's history.
func (p *Provider) PriceHistory(zone string, from, to int64) (*trace.Trace, error) {
	t, ok := p.traces.ByZone[zone]
	if !ok {
		return nil, fmt.Errorf("cloud: unknown zone %q", zone)
	}
	from = min(max(from, t.Start), p.now)
	return t.Window(from, min(max(to, from), p.now)), nil
}

// startupDelay models 200–700 s boot times, varying mainly by region.
// zone may be a pool key; every pool in a zone shares the zone's
// regional component.
func (p *Provider) startupDelay(zone string) int64 {
	base := int64(4) // minutes
	if r, err := market.RegionOfZone(market.PoolZone(zone)); err == nil {
		base += int64(len(r.Name)) % 5 // stable per-region component
	}
	return base + p.rng.Int63n(4) // 4..12 minutes ≈ 240..720 s
}

// nextMinuteAbove returns the first minute >= from at which the zone's
// price strictly exceeds the threshold, or engine.NoMinute if it never
// does within the trace.
func (p *Provider) nextMinuteAbove(zone string, threshold market.Money, from int64) int64 {
	return nextMinuteWhere(p.traces.ByZone[zone], from, func(price market.Money) bool {
		return price > threshold
	})
}

// nextMinuteAtOrBelow returns the first minute >= from at which the
// zone's price is at or below the threshold, or engine.NoMinute.
func (p *Provider) nextMinuteAtOrBelow(zone string, threshold market.Money, from int64) int64 {
	return nextMinuteWhere(p.traces.ByZone[zone], from, func(price market.Money) bool {
		return price <= threshold
	})
}

// nextMinuteWhere scans the trace's change points for the first minute
// >= from whose price satisfies the predicate. The price is piecewise
// constant, so only the point covering from and the points after it
// need be examined.
func nextMinuteWhere(t *trace.Trace, from int64, pred func(market.Money) bool) int64 {
	if from >= t.End {
		return engine.NoMinute
	}
	if from < t.Start {
		from = t.Start
	}
	// Index of the last point at or before from.
	i := sort.Search(len(t.Points), func(i int) bool {
		return t.Points[i].Minute > from
	}) - 1
	if pred(t.Points[i].Price) {
		return from
	}
	for j := i + 1; j < len(t.Points); j++ {
		if pred(t.Points[j].Price) {
			return t.Points[j].Minute
		}
	}
	return engine.NoMinute
}

// launch creates an instance at the current minute, schedules its
// startup completion and (for spot) its out-of-bid reclaim, and
// publishes the launch event. req is non-nil for persistent-request
// fulfilments. extraDelay stretches the startup beyond the sampled
// boot time (a launch-gate injection; 0 outside chaos runs).
func (p *Provider) launch(zone string, it market.InstanceType, spot bool, bid market.Money, req *spotRequest, extraDelay int64) *Instance {
	kind := "od"
	if spot {
		kind = "spot"
	}
	inst := &Instance{
		ID:          p.newID(kind),
		Zone:        zone,
		Type:        it,
		Spot:        spot,
		Bid:         bid,
		State:       Pending,
		RequestedAt: p.now,
		outAt:       engine.NoMinute,
		req:         req,
	}
	inst.RunningAt = p.now + p.startupDelay(zone) + extraDelay
	p.instances[inst.ID] = inst
	p.active = append(p.active, inst)
	if spot {
		// The original per-minute loop checked the price against the
		// bid from the minute after the request onward.
		inst.outAt = p.nextMinuteAbove(zone, bid, p.now+1)
		if inst.outAt != engine.NoMinute {
			p.timers.Schedule(inst.outAt, int(tOutOfBid), timer{kind: tOutOfBid, inst: inst})
		}
	}
	p.timers.Schedule(inst.RunningAt, int(tPromote), timer{kind: tPromote, inst: inst})
	if p.observers.Active() {
		p.observers.Publish(engine.Event{
			Minute: p.now, Kind: engine.KindInstanceLaunched,
			Instance: string(inst.ID), Zone: zone, Spot: spot, Amount: bid,
			Request: reqID(req),
		})
	}
	return inst
}

func reqID(req *spotRequest) string {
	if req == nil {
		return ""
	}
	return string(req.ID)
}

// RequestSpot places a spot request. Per EC2 rules the bid may not
// exceed 4x the on-demand price; per the paper's framework callers cap
// bids at the on-demand price themselves. The request fails immediately
// when the bid is below the current spot price.
func (p *Provider) RequestSpot(zone string, it market.InstanceType, bid market.Money) (InstanceID, error) {
	if it != p.traces.Type {
		return "", fmt.Errorf("cloud: provider serves %s, requested %s", p.traces.Type, it)
	}
	maxBid, err := market.PoolMaxBid(zone, it)
	if err != nil {
		return "", err
	}
	if bid > maxBid {
		return "", fmt.Errorf("cloud: bid %v exceeds cap %v", bid, maxBid)
	}
	price, err := p.SpotPrice(zone)
	if err != nil {
		return "", err
	}
	if bid < price {
		return "", fmt.Errorf("cloud: bid %v below spot price %v in %s", bid, price, zone)
	}
	if down, until := p.zoneDown(zone); down {
		return "", fmt.Errorf("cloud: capacity unavailable in %s until minute %d", zone, until)
	}
	delay, dropped := p.gate(zone, true)
	if dropped {
		return "", fmt.Errorf("cloud: spot request lost in %s", zone)
	}
	return p.launch(zone, it, true, bid, nil, delay).ID, nil
}

// RequestOnDemand launches an on-demand instance. zone may be a pool
// key ("zone/type"), in which case the pool's own type is launched and
// billed.
func (p *Provider) RequestOnDemand(zone string, it market.InstanceType) (InstanceID, error) {
	if _, err := market.PoolOnDemandPrice(zone, it); err != nil {
		return "", err
	}
	if down, until := p.zoneDown(zone); down {
		return "", fmt.Errorf("cloud: capacity unavailable in %s until minute %d", zone, until)
	}
	delay, dropped := p.gate(zone, false)
	if dropped {
		return "", fmt.Errorf("cloud: on-demand request lost in %s", zone)
	}
	return p.launch(zone, it, false, 0, nil, delay).ID, nil
}

// zoneDown reports whether the zone is inside an injected capacity
// outage, and until when. Outages are per availability zone: a pool
// key resolves to its zone, so every pool in a downed zone is down.
func (p *Provider) zoneDown(zone string) (bool, int64) {
	until, ok := p.zoneDownUntil[market.PoolZone(zone)]
	return ok && until > p.now, until
}

// gate consults the installed launch gate (if any) for one request,
// returning the extra startup delay and whether the request is dropped.
func (p *Provider) gate(zone string, spot bool) (int64, bool) {
	if p.launchGate == nil {
		return 0, false
	}
	d := p.launchGate(p.now, zone, spot)
	if d.Drop {
		return 0, true
	}
	if d.DelayMinutes < 0 {
		return 0, false
	}
	return d.DelayMinutes, false
}

// SetLaunchGate installs (or, with nil, removes) a gate consulted by
// the one-shot RequestSpot/RequestOnDemand calls — the chaos layer's
// market-request delay/loss injector. Persistent-request relaunches
// bypass the gate: they model the provider's own refulfilment loop, not
// a fresh control-plane round trip.
func (p *Provider) SetLaunchGate(g func(minute int64, zone string, spot bool) GateDecision) {
	p.launchGate = g
}

// ScheduleAction schedules fn to run at the given future minute, before
// any other transition of that minute. This is the chaos layer's entry
// point for applying faults at exact simulated minutes.
func (p *Provider) ScheduleAction(minute int64, fn func()) {
	p.timers.Schedule(minute, int(tAction), timer{kind: tAction, fn: fn})
}

// StartZoneOutage begins a capacity outage in a zone lasting until the
// given minute (exclusive): every non-terminated instance there is
// reclaimed by the provider now, launches are refused, and persistent
// requests wait for the outage to lift. Overlapping outages extend to
// the later end.
func (p *Provider) StartZoneOutage(zone string, until int64) {
	if p.zoneDownUntil == nil {
		p.zoneDownUntil = make(map[string]int64)
	}
	az := market.PoolZone(zone)
	if until > p.zoneDownUntil[az] {
		p.zoneDownUntil[az] = until
	}
	for _, inst := range p.active {
		// The outage takes down the whole availability zone: every pool
		// in it loses its instances, whatever the instance type.
		if market.PoolZone(inst.Zone) == az && inst.State != Terminated {
			p.terminate(inst, market.TerminatedByProvider, until)
		}
	}
}

// ForceReclaim terminates an instance as a provider-initiated
// interruption regardless of its bid — the reclamation-storm injector.
// Terminated instances are left alone.
func (p *Provider) ForceReclaim(id InstanceID) error {
	inst, ok := p.instances[id]
	if !ok {
		return fmt.Errorf("cloud: unknown instance %s", id)
	}
	if inst.State == Terminated {
		return nil
	}
	p.terminate(inst, market.TerminatedByProvider, p.now)
	return nil
}

// PublishEvent forwards an externally produced event (the chaos
// layer's fault markers) to the provider's observers, stamped at the
// current minute.
func (p *Provider) PublishEvent(e engine.Event) {
	if p.observers.Active() {
		e.Minute = p.now
		p.observers.Publish(e)
	}
}

func (p *Provider) newID(kind string) InstanceID {
	p.nextID++
	return InstanceID(fmt.Sprintf("i-%s-%06d", kind, p.nextID))
}

// terminate ends an instance's life at the current minute. refulfilFrom
// is the first minute the owning persistent request (if any, and not
// cancelled) may relaunch.
func (p *Provider) terminate(inst *Instance, cause market.Termination, refulfilFrom int64) {
	wasPending := inst.State == Pending
	inst.State = Terminated
	inst.TerminatedAt = p.now
	inst.Cause = cause
	if wasPending && cause == market.TerminatedByProvider {
		inst.RunningAt = p.now // never ran
	}
	p.activeDirty = true
	if p.observers.Active() {
		p.observers.Publish(engine.Event{
			Minute: p.now, Kind: engine.KindInstanceTerminated,
			Instance: string(inst.ID), Zone: inst.Zone, Spot: inst.Spot,
			Cause: cause, Request: reqID(inst.req),
		})
		if charge, err := p.Charge(inst.ID); err == nil {
			p.observers.Publish(engine.Event{
				Minute: p.now, Kind: engine.KindBillingClose,
				Instance: string(inst.ID), Zone: inst.Zone, Spot: inst.Spot,
				Amount: charge, Request: reqID(inst.req),
			})
		}
	}
	if req := inst.req; req != nil && !req.Cancelled && req.Current == inst.ID {
		// The original implementation noticed the dead instance on its
		// per-minute request scan and relaunched at the first
		// subsequent minute with the price back at or under the bid.
		req.Current = ""
		p.scheduleRefulfil(req, refulfilFrom)
	}
}

// Terminate shuts an instance down at the current minute on the user's
// initiative (the final partial hour is charged).
func (p *Provider) Terminate(id InstanceID) error {
	inst, ok := p.instances[id]
	if !ok {
		return fmt.Errorf("cloud: unknown instance %s", id)
	}
	if inst.State == Terminated {
		return nil
	}
	// A persistent request whose instance is shut down by the user
	// could only relaunch from the next minute (the request scan of the
	// current minute has already run).
	p.terminate(inst, market.TerminatedByUser, p.now+1)
	return nil
}

// Instance returns a snapshot copy of an instance.
func (p *Provider) Instance(id InstanceID) (Instance, error) {
	inst, ok := p.instances[id]
	if !ok {
		return Instance{}, fmt.Errorf("cloud: unknown instance %s", id)
	}
	return *inst, nil
}

// Alive reports whether the instance is Running, in-bid, and not in a
// hardware outage at the current minute.
func (p *Provider) Alive(id InstanceID) bool {
	inst, ok := p.instances[id]
	if !ok || inst.State != Running {
		return false
	}
	return inst.downUntil <= p.now
}

// AdvanceTo moves simulated time forward, processing startups,
// out-of-bid terminations, outages, and request relaunches at their
// exact minutes. It panics on attempts to move backwards or beyond the
// trace span.
//
// Time jumps from one scheduled transition to the next. With
// hardware-failure injection on, the minutes in between are
// hazard-only: no timer fires and no request relaunches there, so the
// set of instances that draw cannot change except by a hit. drawSpan
// makes those minutes' Bernoulli draws in one loop over that fixed set,
// consuming the RNG stream exactly as stepping minute by minute did
// (advanceReference in the tests keeps that stepping as the oracle).
func (p *Provider) AdvanceTo(minute int64) {
	if minute < p.now {
		panic(fmt.Sprintf("cloud: time moving backwards (%d -> %d)", p.now, minute))
	}
	if minute >= p.traces.End {
		panic(fmt.Sprintf("cloud: minute %d beyond trace end %d", minute, p.traces.End))
	}
	for p.now < minute {
		next := min(p.timers.NextMinute(), p.refulfilNext, minute)
		if next <= p.now {
			next = p.now + 1
		}
		if p.hazardPerMinute > 0 && p.drawSpan(next) {
			continue // a hit: p.now is its minute, already finished
		}
		p.now = next
		p.processMinute()
	}
}

// drawSpan makes the hazard draws of the minutes after now and before
// end, none of which holds a scheduled transition. The instances that
// draw there are the running ones out of any outage by now: an outage
// healing inside the span would have its tOutageEnd timer there. At the
// first hit drawSpan moves now to the hit's minute, finishes that
// minute as processMinute would (the later instances' draws, then the
// request scan) and reports true; otherwise it leaves now alone.
func (p *Provider) drawSpan(end int64) bool {
	set := p.drawSet[:0]
	for _, inst := range p.active {
		if inst.State == Running && inst.downUntil <= p.now {
			set = append(set, inst)
		}
	}
	p.drawSet = set
	n := int64(len(set))
	draws := (end - p.now - 1) * n
	if draws <= 0 {
		return false
	}
	// The span's draws run minute by minute, each minute over set in
	// order: draw k is minute now+1+k/n, instance k%n.
	k := p.rng.FalseRun(p.hazardPerMinute, draws)
	if k == draws {
		return false
	}
	p.now += 1 + k/n
	i := k % n
	p.startOutage(set[i])
	p.drawMinute(set[i+1:])
	p.finishMinute()
	return true
}

// processMinute applies everything that happens at minute p.now, in the
// order of the original per-minute loop: state transitions, then hazard
// draws over instances in creation order, then the persistent-request
// relaunch scan.
func (p *Provider) processMinute() {
	for {
		tm, ok := p.timers.PopDue(p.now)
		if !ok {
			break
		}
		p.applyTimer(tm.Payload)
	}
	if p.hazardPerMinute > 0 {
		p.drawMinute(p.active)
	}
	p.finishMinute()
}

// drawMinute makes minute p.now's hazard draws over insts, in order.
// Draw-eligible: running since before this minute and not in an
// outage. Instances promoted or reclaimed at this minute were already
// handled by their timers.
func (p *Provider) drawMinute(insts []*Instance) {
	m := p.now
	for _, inst := range insts {
		if inst.State == Running && inst.RunningAt < m && inst.downUntil <= m && p.rng.Bool(p.hazardPerMinute) {
			p.startOutage(inst)
		}
	}
}

// startOutage begins a hardware outage of inst at minute p.now, its
// length drawn from the FP' model's repair time.
func (p *Provider) startOutage(inst *Instance) {
	inst.downUntil = p.now + 1 + p.rng.Int63n(2*p.mttrMinutes)
	p.timers.Schedule(inst.downUntil, int(tOutageEnd), timer{
		kind: tOutageEnd, inst: inst, until: inst.downUntil,
	})
	if p.observers.Active() {
		p.observers.Publish(engine.Event{
			Minute: p.now, Kind: engine.KindOutageStart,
			Instance: string(inst.ID), Zone: inst.Zone, Spot: inst.Spot,
			Until: inst.downUntil, Request: reqID(inst.req),
		})
	}
}

// finishMinute closes minute p.now: the persistent-request relaunch
// scan when one is due, then dropping terminated instances from the
// draw order.
func (p *Provider) finishMinute() {
	if p.refulfilNext <= p.now {
		p.stepRequests()
	}
	if p.activeDirty {
		live := p.active[:0]
		for _, inst := range p.active {
			if inst.State != Terminated {
				live = append(live, inst)
			}
		}
		// Drop trailing pointers so terminated instances can be
		// collected... they stay in p.instances anyway for billing.
		for i := len(live); i < len(p.active); i++ {
			p.active[i] = nil
		}
		p.active = live
		p.activeDirty = false
	}
}

// applyTimer fires one scheduled transition, skipping stale timers
// (instances terminated in the meantime, outages that were rescheduled).
func (p *Provider) applyTimer(t timer) {
	inst := t.inst
	switch t.kind {
	case tAction:
		t.fn()
	case tOutOfBid:
		if inst.State == Terminated {
			return
		}
		// Fires at the first minute the price exceeds the bid; a
		// pending instance is reclaimed before it ever runs.
		p.terminate(inst, market.TerminatedByProvider, p.now)
	case tPromote:
		if inst.State != Pending {
			return
		}
		inst.State = Running
		if p.observers.Active() {
			p.observers.Publish(engine.Event{
				Minute: p.now, Kind: engine.KindInstanceRunning,
				Instance: string(inst.ID), Zone: inst.Zone, Spot: inst.Spot,
				Request: reqID(inst.req),
			})
		}
	case tOutageEnd:
		if inst.State != Running || inst.downUntil != t.until {
			return
		}
		if p.observers.Active() {
			p.observers.Publish(engine.Event{
				Minute: p.now, Kind: engine.KindOutageEnd,
				Instance: string(inst.ID), Zone: inst.Zone, Spot: inst.Spot,
				Request: reqID(inst.req),
			})
		}
	}
}

// Charge computes the total bill for an instance up to now (or its
// termination). Spot instances follow the §2.1 rules; on-demand
// instances bill every started hour.
func (p *Provider) Charge(id InstanceID) (market.Money, error) {
	inst, ok := p.instances[id]
	if !ok {
		return 0, fmt.Errorf("cloud: unknown instance %s", id)
	}
	start := inst.RunningAt
	end := p.now
	if inst.State == Terminated {
		end = inst.TerminatedAt
	}
	if inst.State == Pending || end <= start {
		return 0, nil // never billed before running
	}
	if inst.Spot {
		tr := p.traces.ByZone[inst.Zone]
		cause := market.TerminatedByUser
		if inst.State == Terminated {
			cause = inst.Cause
		}
		return market.SpotCharge(tr.PriceAt, start, end, cause), nil
	}
	od, err := market.PoolOnDemandPrice(inst.Zone, inst.Type)
	if err != nil {
		return 0, err
	}
	return market.OnDemandCharge(od, start, end), nil
}

// LiveInstances lists non-terminated instance IDs, sorted for
// determinism.
func (p *Provider) LiveInstances() []InstanceID {
	var out []InstanceID
	for _, inst := range p.active {
		if inst.State != Terminated {
			out = append(out, inst.ID)
		}
	}
	return out
}
