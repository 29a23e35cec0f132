// Package engine is the deterministic discrete-event simulation kernel
// underneath the spot-market simulator: a priority-queue scheduler keyed
// on the simulated minute with stable tie-breaking, a typed Event
// stream, and an Observer interface whose hooks cover instance
// lifecycle, out-of-bid terminations, bidding decisions, billing
// closures, and quorum up/down transitions.
//
// The kernel replaces the original minute-by-minute polling loops:
// internal/cloud schedules every future state transition (startup
// completion, out-of-bid reclaim, outage end, persistent-request
// relaunch) as a timer and publishes an Event when it fires, and
// internal/replay subscribes to the stream and only wakes at
// interesting minutes instead of iterating the whole trace. Everything
// is single-goroutine and deterministic: identical inputs produce an
// identical event sequence, which is what makes the parallel experiment
// sweeps reproducible cell by cell.
package engine

import "repro/internal/market"

// NoMinute is the sentinel "never" minute for schedules and peeks.
const NoMinute = int64(1)<<62 - 1

// Kind discriminates the events of the simulation stream.
type Kind int

const (
	// KindInstanceLaunched: a spot or on-demand request was accepted
	// and an instance entered its startup delay.
	KindInstanceLaunched Kind = iota
	// KindInstanceRunning: startup completed; the instance serves from
	// this minute.
	KindInstanceRunning
	// KindInstanceTerminated: the instance is gone. Cause
	// distinguishes provider reclaims (out-of-bid) from user shutdowns.
	KindInstanceTerminated
	// KindOutageStart: a hardware/software outage began (the SLA
	// failure model); the instance is down from this minute until the
	// Until minute.
	KindOutageStart
	// KindOutageEnd: the outage healed; the instance serves again from
	// this minute.
	KindOutageEnd
	// KindRequestFulfilled: a persistent spot request (re)launched an
	// instance.
	KindRequestFulfilled
	// KindBillingClose: an instance's bill is final. Amount carries the
	// total charge under the §2.1 rules.
	KindBillingClose
	// KindDecision: a bidding decision was made. Size carries the
	// chosen group size.
	KindDecision
	// KindQuorumUp: the replayed service regained a live quorum.
	KindQuorumUp
	// KindQuorumDown: the replayed service lost its live quorum. Size
	// carries the live count at the transition.
	KindQuorumDown
	// KindModelTrained: a zone's price model was (re)trained through the
	// shared model provider. Zone carries the zone, DurationNanos the
	// wall-clock training time, and Size is 1 for an incremental retrain
	// and 0 for a from-scratch one. Cache hits publish nothing.
	KindModelTrained
	// KindFaultInjected: the chaos layer injected a fault. Fault names
	// the injector ("zone-blackout", "reclaim-storm", ...), Zone the
	// affected zone (empty for market-wide faults), Instance the victim
	// where one exists, Until the healing minute of windowed faults, and
	// Size an injector-specific magnitude (delay minutes, victim count).
	KindFaultInjected
	// KindFaultCleared: a windowed injected fault (zone blackout, price
	// spike, trace gap) reached the end of its window. Fault and Zone
	// mirror the matching KindFaultInjected event.
	KindFaultCleared
	// KindResizeTarget: the workload autoscaler moved the target group
	// size and a gradual resize began. Size carries the new target.
	KindResizeTarget
	// KindResizeStep: one step of an in-flight gradual resize. Fault
	// carries the phase ("install", "detach", "hold", "settled"),
	// Instance the detached member where one exists, Zone its pool, and
	// Size the fleet size after the step.
	KindResizeStep
	// KindStage: a fault-aware strategy's degradation stage changed.
	// Fault carries the new stage ("healthy", "degraded", "critical").
	// A run that never leaves healthy publishes none.
	KindStage

	// KindCount is one past the last declared Kind. Consumers that map
	// every kind (telemetry, exhaustiveness tests) iterate
	// [0, KindCount); it is not itself a valid Kind.
	KindCount
)

// String renders the event kind.
func (k Kind) String() string {
	switch k {
	case KindInstanceLaunched:
		return "instance-launched"
	case KindInstanceRunning:
		return "instance-running"
	case KindInstanceTerminated:
		return "instance-terminated"
	case KindOutageStart:
		return "outage-start"
	case KindOutageEnd:
		return "outage-end"
	case KindRequestFulfilled:
		return "request-fulfilled"
	case KindBillingClose:
		return "billing-close"
	case KindDecision:
		return "decision"
	case KindQuorumUp:
		return "quorum-up"
	case KindQuorumDown:
		return "quorum-down"
	case KindModelTrained:
		return "model-trained"
	case KindFaultInjected:
		return "fault-injected"
	case KindFaultCleared:
		return "fault-cleared"
	case KindResizeTarget:
		return "resize-target"
	case KindResizeStep:
		return "resize-step"
	case KindStage:
		return "stage"
	default:
		return "event(?)"
	}
}

// Event is one element of the simulation stream. It is a flat value
// (no allocation per publish); fields beyond Minute and Kind are
// populated per kind as documented on the Kind constants.
type Event struct {
	Minute int64
	Kind   Kind
	// Instance is the subject instance ID, if any.
	Instance string
	// Request is the persistent spot request ID, if any.
	Request string
	// Zone is the availability zone of the subject.
	Zone string
	// Spot distinguishes spot from on-demand instances.
	Spot bool
	// Cause is valid for KindInstanceTerminated.
	Cause market.Termination
	// Amount is the billing total (KindBillingClose) or the bid
	// (KindInstanceLaunched, spot only).
	Amount market.Money
	// Until is the healing minute for KindOutageStart.
	Until int64
	// Size is the group size (KindDecision), live count
	// (KindQuorumUp/KindQuorumDown), or incremental flag
	// (KindModelTrained).
	Size int
	// DurationNanos is the wall-clock cost of the work the event
	// reports, where that is meaningful (KindModelTrained). Wall time is
	// instrumentation only — it never feeds back into simulated time.
	DurationNanos int64
	// Fault names the injector behind KindFaultInjected and
	// KindFaultCleared events ("zone-blackout", "reclaim-storm",
	// "price-spike", "request-delay", "request-loss", "trace-gap",
	// "flash-crowd"), the phase of KindResizeStep events
	// ("install", "detach", "hold", "settled") and the new stage of
	// KindStage events.
	Fault string
}

// Observer receives the event stream. Implementations must be fast and
// must not mutate the simulation from inside a hook; the kernel calls
// them synchronously at the exact simulated minute of each event, in
// deterministic order.
type Observer interface {
	// OnInstance receives lifecycle events: launched, running,
	// terminated, outage start/end, request fulfilled.
	OnInstance(Event)
	// OnOutOfBid receives provider reclaims — the subset of
	// terminations caused by the market leaving the bid behind. Such
	// terminations are delivered to both OnInstance and OnOutOfBid.
	OnOutOfBid(Event)
	// OnDecision receives bidding decisions.
	OnDecision(Event)
	// OnBilling receives billing closures.
	OnBilling(Event)
	// OnQuorum receives service quorum up/down transitions.
	OnQuorum(Event)
	// OnModel receives model-provider training events.
	OnModel(Event)
	// OnFault receives chaos-layer fault injections and clearances.
	OnFault(Event)
}

// Dispatch routes an event to the appropriate Observer hooks.
func Dispatch(o Observer, e Event) {
	switch e.Kind {
	case KindInstanceLaunched, KindInstanceRunning, KindOutageStart, KindOutageEnd, KindRequestFulfilled:
		o.OnInstance(e)
	case KindInstanceTerminated:
		o.OnInstance(e)
		if e.Cause == market.TerminatedByProvider {
			o.OnOutOfBid(e)
		}
	case KindDecision, KindResizeTarget, KindResizeStep, KindStage:
		// Resize and stage events ride the decision hook: they are
		// control-plane choices of the same pipeline, and every consumer
		// that counts decisions counts KindDecision alone.
		o.OnDecision(e)
	case KindBillingClose:
		o.OnBilling(e)
	case KindQuorumUp, KindQuorumDown:
		o.OnQuorum(e)
	case KindModelTrained:
		o.OnModel(e)
	case KindFaultInjected, KindFaultCleared:
		o.OnFault(e)
	}
}

// BaseObserver is a no-op Observer for embedding, so concrete observers
// implement only the hooks they care about.
type BaseObserver struct{}

func (BaseObserver) OnInstance(Event) {}
func (BaseObserver) OnOutOfBid(Event) {}
func (BaseObserver) OnDecision(Event) {}
func (BaseObserver) OnBilling(Event)  {}
func (BaseObserver) OnQuorum(Event)   {}
func (BaseObserver) OnModel(Event)    {}
func (BaseObserver) OnFault(Event)    {}

// Hooks adapts plain functions to the Observer interface; nil hooks are
// skipped. Handy for inline observers in tests and tools.
type Hooks struct {
	Instance func(Event)
	OutOfBid func(Event)
	Decision func(Event)
	Billing  func(Event)
	Quorum   func(Event)
	Model    func(Event)
	Fault    func(Event)
}

func (h *Hooks) OnInstance(e Event) {
	if h.Instance != nil {
		h.Instance(e)
	}
}

func (h *Hooks) OnOutOfBid(e Event) {
	if h.OutOfBid != nil {
		h.OutOfBid(e)
	}
}

func (h *Hooks) OnDecision(e Event) {
	if h.Decision != nil {
		h.Decision(e)
	}
}

func (h *Hooks) OnBilling(e Event) {
	if h.Billing != nil {
		h.Billing(e)
	}
}

func (h *Hooks) OnQuorum(e Event) {
	if h.Quorum != nil {
		h.Quorum(e)
	}
}

func (h *Hooks) OnModel(e Event) {
	if h.Model != nil {
		h.Model(e)
	}
}

func (h *Hooks) OnFault(e Event) {
	if h.Fault != nil {
		h.Fault(e)
	}
}

// Fanout broadcasts events to a list of observers in order.
type Fanout []Observer

// Publish dispatches the event to every observer.
func (f Fanout) Publish(e Event) {
	for _, o := range f {
		Dispatch(o, e)
	}
}

// Active reports whether any observer is subscribed, letting publishers
// skip building events nobody will see.
func (f Fanout) Active() bool { return len(f) > 0 }
