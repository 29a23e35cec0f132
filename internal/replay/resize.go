package replay

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/quorum"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Resize pacing. The drain is deliberately gradual — the point of the
// state machine is that capacity never leaves faster than the quorum
// gates can re-verify it against the live market.
const (
	// detachEvery paces a scale-down: at most one member leaves the
	// fleet every detachEvery minutes.
	detachEvery = 2
	// holdRetryMinutes is how long a refused detach (quorum floor or
	// Eq. 10 gate) waits before the gates are re-evaluated.
	holdRetryMinutes = 5
)

// Resize step phases, carried in the Fault field of KindResizeStep
// events.
const (
	phaseInstall = "install"
	phaseDetach  = "detach"
	phaseHold    = "hold"
	phaseSettled = "settled"
	phaseAbort   = "abort"
)

// loadTarget carries the autoscaler's current target group size to the
// strategy view. The pointer lives on the run's marketView; the
// resizer updates it before every Decide so strategies size for the
// load ruling at that decision.
type loadTarget struct {
	n int
}

// QuorumFloorError reports a refused scale-down step: detaching the
// chosen victim would either drop the fleet's alive capacity below the
// quorum floor, or drop the predicted quorum availability below the
// spec's Eq. 10 target. The resizer holds size and retries; tests
// match the type with errors.As.
type QuorumFloorError struct {
	// Zone is the pool of the refused victim.
	Zone string
	// AliveUnits and QuorumUnits describe the fleet the detach would
	// have left: alive capacity units against the quorum floor.
	AliveUnits  int
	QuorumUnits int
	// Availability and Target carry the Eq. 10 evaluation when the
	// floor held but the predicted availability did not (both zero for
	// a floor refusal).
	Availability float64
	Target       float64
}

func (e *QuorumFloorError) Error() string {
	if e.Target > 0 {
		return fmt.Sprintf("replay: detach %s refused: availability %.6f below target %.6f",
			e.Zone, e.Availability, e.Target)
	}
	return fmt.Sprintf("replay: detach %s refused: %d alive units under quorum floor %d",
		e.Zone, e.AliveUnits, e.QuorumUnits)
}

// resizer is the gradual-resize state machine the replay kernel (and
// its polling test oracle) drives. Between interval boundaries it watches the autoscaler plan
// and, when the target moves, re-runs the strategy at the new size and
// reconciles the fleet toward the decision in availability-preserving
// steps:
//
//	trigger  — publish the new target, decide, launch the missing
//	           members (spot, falling back to on-demand when the spot
//	           request cannot be placed), queue the surplus
//	install  — when the last launch finishes its view-change/startup
//	           delay, the new members join the fleet and start counting
//	           toward quorum
//	detach   — surplus members leave one at a time, each step gated on
//	           the post-detach alive capacity staying at or above the
//	           quorum floor AND the post-detach Eq. 10 availability
//	           staying at or above the spec target; a refused step
//	           holds size and retries
//	settled  — the drain is empty; the resizer idles until the plan
//	           moves again
//
// A resize still in flight when the next interval decision fires is
// aborted: pending installs are terminated (a still-pending instance
// bills nothing) and the drain queue is dropped — the boundary
// decision re-plans the whole fleet anyway.
type resizer struct {
	r    *run
	plan *workload.Plan

	// fleetChanged, set by the driving kernel, refreshes its quorum
	// bookkeeping after the resizer mutates r.fleet at the given
	// minute.
	fleetChanged func(minute int64)

	// actedTarget is the plan target the fleet was last decided for —
	// at an interval boundary or at a resize trigger.
	actedTarget int

	adds    []member // launched members waiting out startup
	readyAt int64    // minute the slowest add finishes startup

	outgoing   map[string]bool // zones queued to leave the fleet
	nextDetach int64           // earliest minute of the next detach try
}

func newResizer(r *run, plan *workload.Plan) *resizer {
	return &resizer{
		r:          r,
		plan:       plan,
		readyAt:    engine.NoMinute,
		nextDetach: engine.NoMinute,
	}
}

// busy reports whether a resize is in flight: installs waiting on
// startup or a drain queue not yet empty. A busy resizer does not
// trigger again; a new plan target waits for the current one to
// settle.
func (rz *resizer) busy() bool {
	return rz.readyAt != engine.NoMinute || len(rz.outgoing) > 0
}

// prepareDecision readies the run for an interval-boundary decision at
// the given minute: any in-flight resize is aborted and the view's
// load target moves to the plan target ruling now, which the boundary
// decision then acts on wholesale.
func (rz *resizer) prepareDecision(now int64) error {
	if err := rz.abort(now); err != nil {
		return err
	}
	rz.actedTarget = rz.plan.TargetAt(now)
	rz.r.view.load.n = rz.actedTarget
	return nil
}

// abort cancels an in-flight resize: pending adds are terminated (a
// still-pending instance's bill closes at zero) and the drain queue is
// dropped — its members simply stay in the fleet for the boundary
// decision to retire. No-op when nothing is in flight.
func (rz *resizer) abort(now int64) error {
	if !rz.busy() {
		return nil
	}
	r := rz.r
	for _, mb := range rz.adds {
		switch {
		case mb.reqID != "":
			if err := r.provider.CancelSpotRequest(mb.reqID, true); err != nil {
				return err
			}
		case mb.id != "":
			if err := r.provider.Terminate(mb.id); err != nil {
				return err
			}
		}
	}
	rz.adds = nil
	rz.outgoing = nil
	rz.readyAt, rz.nextDetach = engine.NoMinute, engine.NoMinute
	rz.emitStep(now, phaseAbort, "", "", "")
	return nil
}

// nextWake returns the next minute the resizer needs the event kernel
// to wake at: the pending install, the next detach try, or — when idle
// and outside the pre-boundary pause window — the plan's next target
// deviation. engine.NoMinute means nothing scheduled.
func (rz *resizer) nextWake(now, pauseFrom int64) int64 {
	switch {
	case rz.readyAt != engine.NoMinute:
		return rz.readyAt
	case len(rz.outgoing) > 0:
		return rz.nextDetach
	}
	next, ok := rz.plan.NextDeviation(now, rz.actedTarget)
	if !ok || next >= pauseFrom {
		return engine.NoMinute
	}
	return next
}

// act runs every resize action due at the current minute, in machine
// order: install, then drain, then (when idle and outside the
// pre-boundary pause window, now < pauseFrom) a fresh trigger. The
// event kernel calls it at its computed wake minutes and the polling
// oracle every minute, with identical semantics, so the two stay
// bit-identical under resize.
func (rz *resizer) act(now, pauseFrom int64) error {
	for {
		switch {
		case rz.readyAt != engine.NoMinute:
			if rz.readyAt > now {
				return nil
			}
			rz.install(now)
		case len(rz.outgoing) > 0:
			if rz.nextDetach > now {
				return nil
			}
			if rz.victimIndex() < 0 {
				// Everything queued already left the fleet some other
				// way (reclaimed and rotated); the drain is done.
				rz.settle(now)
				continue
			}
			err := rz.detachOne(now)
			var qf *QuorumFloorError
			switch {
			case errors.As(err, &qf):
				rz.emitStep(now, phaseHold, "", "", qf.Zone)
				rz.nextDetach = now + holdRetryMinutes
			case err != nil:
				return err
			default:
				rz.nextDetach = now + detachEvery
				if len(rz.outgoing) == 0 {
					rz.settle(now)
				}
			}
		case now < pauseFrom && rz.plan.TargetAt(now) != rz.actedTarget:
			if err := rz.trigger(now); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// trigger starts one resize cycle: publish the new target, re-run the
// strategy at that size, launch what the decision wants and the fleet
// lacks, and queue what the fleet has and the decision dropped.
func (rz *resizer) trigger(now int64) error {
	r := rz.r
	target := rz.plan.TargetAt(now)
	r.view.load.n = target
	if r.userObs.Active() {
		r.userObs.Publish(engine.Event{Minute: now, Kind: engine.KindResizeTarget, Size: target})
	}
	decision, err := r.cfg.Strategy.Decide(r.view, r.cfg.Spec, r.chooseInterval())
	if err != nil {
		return err
	}
	r.res.Decisions++
	rz.actedTarget = target

	inFleet := map[string]bool{}
	for _, mb := range r.fleet {
		inFleet[mb.zone] = true
	}
	wanted := map[string]bool{}
	add := func(mb member) {
		mb = r.launchMember(mb)
		if !mb.onDemand && mb.id == "" && mb.reqID == "" {
			// Spot capacity could not be raised in this pool (bid below
			// market, or a chaos gate dropped the request): substitute
			// on-demand so the grow step still lands — the §4 fallback.
			if sub := r.launchMember(member{zone: mb.zone, onDemand: true}); sub.id != "" {
				mb = sub
			}
		}
		if mb.id != "" || mb.reqID != "" {
			rz.adds = append(rz.adds, mb)
		}
	}
	for _, b := range decision.Bids {
		wanted[b.Zone] = true
		if !inFleet[b.Zone] {
			add(member{zone: b.Zone, bid: b.Price})
		}
	}
	for _, z := range decision.OnDemand {
		wanted[z] = true
		if !inFleet[z] {
			add(member{zone: z, onDemand: true})
		}
	}
	rz.outgoing = map[string]bool{}
	for _, mb := range r.fleet {
		if !wanted[mb.zone] {
			rz.outgoing[mb.zone] = true
		}
	}

	decided := len(decision.Bids) + len(decision.OnDemand)
	r.groupSizeSum += decided
	if decided > r.res.MaxGroupSize {
		r.res.MaxGroupSize = decided
	}

	switch {
	case len(rz.adds) > 0:
		rz.readyAt = rz.installReady(now)
		rz.nextDetach = engine.NoMinute
	case len(rz.outgoing) > 0:
		rz.readyAt = engine.NoMinute
		rz.nextDetach = now
	default:
		rz.settle(now)
	}
	return nil
}

// installReady returns the minute every add has finished its
// view-change/startup delay. An add whose instance cannot be resolved
// yet (an unfulfilled persistent request) is charged the full decision
// lead, the run's stated worst-case startup budget.
func (rz *resizer) installReady(now int64) int64 {
	p := rz.r.provider
	ready := now
	for _, mb := range rz.adds {
		at := now + leadMinutes
		switch {
		case mb.id != "":
			if inst, err := p.Instance(mb.id); err == nil {
				at = inst.RunningAt
			}
		case mb.reqID != "":
			if hist, err := p.RequestHistory(mb.reqID); err == nil && len(hist) > 0 {
				if inst, err := p.Instance(hist[len(hist)-1]); err == nil {
					at = inst.RunningAt
				}
			}
		}
		if at > ready {
			ready = at
		}
	}
	return ready
}

// install moves the waiting adds into the fleet: from this minute they
// count toward quorum. The drain of any queued surplus starts
// immediately after.
func (rz *resizer) install(now int64) {
	r := rz.r
	r.fleet = append(r.fleet, rz.adds...)
	rz.adds = nil
	rz.readyAt = engine.NoMinute
	if rz.fleetChanged != nil {
		rz.fleetChanged(now)
	}
	rz.emitStep(now, phaseInstall, "", "", "")
	rz.nextDetach = now
	if len(rz.outgoing) == 0 {
		rz.settle(now)
	}
}

// settle closes the resize cycle.
func (rz *resizer) settle(now int64) {
	rz.adds = nil
	rz.outgoing = nil
	rz.readyAt, rz.nextDetach = engine.NoMinute, engine.NoMinute
	rz.emitStep(now, phaseSettled, "", "", "")
}

// victimIndex picks the next member to drain among the queued zones:
// dead members first, then on-demand (the expensive capacity), then
// spot by highest bid, ties by pool key. -1 when no queued zone is in
// the fleet anymore.
func (rz *resizer) victimIndex() int {
	r := rz.r
	best := -1
	var bestAlive, bestOD bool
	var bestBid market.Money
	var bestZone string
	for i, mb := range r.fleet {
		if !rz.outgoing[mb.zone] {
			continue
		}
		alive := r.memberAlive(mb)
		better := false
		switch {
		case best < 0:
			better = true
		case alive != bestAlive:
			better = !alive
		case mb.onDemand != bestOD:
			better = mb.onDemand
		case mb.bid != bestBid:
			better = mb.bid > bestBid
		default:
			better = mb.zone < bestZone
		}
		if better {
			best, bestAlive, bestOD, bestBid, bestZone = i, alive, mb.onDemand, mb.bid, mb.zone
		}
	}
	return best
}

// detachOne retires the drain queue's next victim — unless either gate
// refuses. Gate one is the quorum floor: the post-detach fleet's alive
// capacity units must still reach its quorum. Gate two is the paper's
// Eq. 10 bound re-verified over the post-detach membership: the
// weighted-threshold availability, with per-member failure
// probabilities from the strategy's own bid estimates where it exposes
// them (strategy.FailureProber), must stay at or above the spec
// target. A refusal returns *QuorumFloorError and leaves the fleet
// untouched.
func (rz *resizer) detachOne(now int64) error {
	r := rz.r
	vi := rz.victimIndex()
	victim := r.fleet[vi]

	rest := make([]member, 0, len(r.fleet)-1)
	rest = append(rest, r.fleet[:vi]...)
	rest = append(rest, r.fleet[vi+1:]...)
	units := fleetUnits(rest, r.cfg.Spec, nil)
	alive := make([]bool, len(rest))
	totalUnits, aliveUnits := 0, 0
	for i, mb := range rest {
		totalUnits += units[i]
		alive[i] = r.memberAlive(mb)
		if alive[i] {
			aliveUnits += units[i]
		}
	}
	quorumUnits := r.cfg.Spec.QuorumUnits(totalUnits)
	if len(rest) == 0 || aliveUnits < quorumUnits {
		return &QuorumFloorError{Zone: victim.zone, AliveUnits: aliveUnits, QuorumUnits: quorumUnits}
	}
	target := r.cfg.Spec.TargetAvailability()
	if avail := quorum.WeightedThresholdAvailability(quorumUnits, units, rz.failureProbabilities(rest, alive)); avail < target {
		return &QuorumFloorError{
			Zone: victim.zone, AliveUnits: aliveUnits, QuorumUnits: quorumUnits,
			Availability: avail, Target: target,
		}
	}

	r.fleet = rest
	delete(rz.outgoing, victim.zone)
	if rz.fleetChanged != nil {
		rz.fleetChanged(now)
	}
	rz.emitStep(now, phaseDetach, string(victim.id), string(victim.reqID), victim.zone)
	// Terminate after the fleet shrank, so the termination event finds
	// no member slot to flip.
	switch {
	case victim.reqID != "":
		return r.provider.CancelSpotRequest(victim.reqID, true)
	case victim.id != "":
		return r.provider.Terminate(victim.id)
	}
	return nil
}

// failureProbabilities estimates each remaining member's per-interval
// failure probability for the Eq. 10 gate: the strategy's own latest
// bid estimate for its pool where exposed, the on-demand probability
// for on-demand members and unprobed pools, and certain failure for
// members that are already dead.
func (rz *resizer) failureProbabilities(rest []member, alive []bool) []float64 {
	var probed map[string]float64
	if fp, ok := rz.r.cfg.Strategy.(strategy.FailureProber); ok {
		probed = fp.LastBidFailureProbabilities()
	}
	fps := make([]float64, len(rest))
	for i, mb := range rest {
		switch {
		case !alive[i]:
			fps[i] = 1
		case !mb.onDemand:
			if p, ok := probed[mb.zone]; ok && p >= 0 && p <= 1 {
				fps[i] = p
			} else {
				fps[i] = market.OnDemandFailureProbability
			}
		default:
			fps[i] = market.OnDemandFailureProbability
		}
	}
	return fps
}

// emitStep publishes one KindResizeStep event. Detach steps carry the
// victim's instance and persistent-request IDs so attribution can bill
// the retirement to the resize.
func (rz *resizer) emitStep(now int64, phase, instance, request, zone string) {
	r := rz.r
	if !r.userObs.Active() {
		return
	}
	r.userObs.Publish(engine.Event{
		Minute: now, Kind: engine.KindResizeStep, Fault: phase,
		Instance: instance, Request: request, Zone: zone, Size: len(r.fleet),
	})
}

// memberAlive reports whether a member's backing capacity is live.
func (r *run) memberAlive(mb member) bool {
	switch {
	case mb.reqID != "":
		return r.provider.RequestAlive(mb.reqID)
	case mb.id != "":
		return r.provider.Alive(mb.id)
	}
	return false
}
