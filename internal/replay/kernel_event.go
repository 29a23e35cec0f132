package replay

import (
	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/strategy"
)

// availTracker integrates service availability from the provider's
// event stream. It mirrors the per-minute quorum evaluation of the
// polling oracle exactly: a member slot is alive while its instance is
// Running, in-bid, and not in an outage, and the service is down at
// every minute the live count is under quorum (or the fleet is empty).
// Aliveness only changes at instance-running, instance-terminated,
// outage-start, and outage-end events, so integrating down-spans
// between events reproduces the minute-by-minute count without
// visiting the minutes in between. A minute's status is its status
// after every event of that minute — the same thing the polling oracle
// observes evaluating after AdvanceTo.
type availTracker struct {
	engine.BaseObserver
	spec strategy.ServiceSpec
	p    *cloud.Provider
	// emit reports quorum transitions (minute, down, live count).
	emit func(minute int64, down bool, live int)

	// Member slots of the current interval's fleet, keyed by the
	// instance or persistent-request ID backing each slot. A slice of
	// slots tolerates the degenerate case of one ID backing several
	// slots. Quorum is evaluated over capacity units (a pool of weight
	// w counts as w·UnitsPerNode survivors; every slot of a single-type
	// fleet weighs exactly UnitsPerNode, making the unit rule the node
	// rule); aliveCount still tracks live slots for event payloads.
	instSlots   map[cloud.InstanceID][]int
	reqSlots    map[cloud.RequestID][]int
	alive       []bool
	units       []int
	aliveCount  int
	aliveUnits  int
	n           int
	quorumUnits int

	started   bool // membership installed; spans accumulate
	closed    bool // accounting over; ignore further events
	down      bool
	downSince int64
	downTotal int64 // completed down-span minutes
}

// OnInstance folds one lifecycle event into the aliveness state.
func (t *availTracker) OnInstance(e engine.Event) {
	if t.closed || !t.started {
		return
	}
	// Events for request-backed instances carry the request ID and are
	// routed by it; members registered by request stay registered
	// across relaunches.
	var slots []int
	if e.Request != "" {
		slots = t.reqSlots[cloud.RequestID(e.Request)]
	} else {
		slots = t.instSlots[cloud.InstanceID(e.Instance)]
	}
	if len(slots) == 0 {
		return
	}
	var v bool
	switch e.Kind {
	case engine.KindInstanceRunning, engine.KindOutageEnd:
		v = true
	case engine.KindInstanceTerminated, engine.KindOutageStart:
		v = false
	default:
		// Launched and request-fulfilled instances are still pending;
		// aliveness is unchanged.
		return
	}
	for _, i := range slots {
		t.set(i, v, e.Minute)
	}
}

// set flips one slot and updates the service's down status. Same-minute
// flip pairs open and close zero-length spans, contributing nothing —
// exactly the end-of-minute status the polling oracle samples.
func (t *availTracker) set(i int, v bool, minute int64) {
	if t.alive[i] == v {
		return
	}
	t.alive[i] = v
	if v {
		t.aliveCount++
		t.aliveUnits += t.units[i]
	} else {
		t.aliveCount--
		t.aliveUnits -= t.units[i]
	}
	down := t.n == 0 || t.aliveUnits < t.quorumUnits
	if down == t.down {
		return
	}
	if down {
		t.downSince = minute
	} else {
		t.downTotal += minute - t.downSince
	}
	t.down = down
	t.emit(minute, down, t.aliveCount)
}

// rebuild installs a new fleet at an interval boundary, polling the
// provider for each member's current aliveness. The open down-span of
// the old membership is closed at the boundary; if the new membership
// is also under quorum the span continues seamlessly from the same
// minute.
func (t *availTracker) rebuild(members []member, minute int64) {
	wasDown := t.started && t.down
	if wasDown {
		t.downTotal += minute - t.downSince
	}
	t.started = true
	t.instSlots = make(map[cloud.InstanceID][]int, len(members))
	t.reqSlots = make(map[cloud.RequestID][]int, len(members))
	t.alive = make([]bool, len(members))
	t.units = fleetUnits(members, t.spec, t.units[:0])
	t.aliveCount = 0
	t.aliveUnits = 0
	t.n = len(members)
	totalUnits := 0
	for _, u := range t.units {
		totalUnits += u
	}
	t.quorumUnits = t.spec.QuorumUnits(totalUnits)
	for i, mb := range members {
		switch {
		case mb.reqID != "":
			t.reqSlots[mb.reqID] = append(t.reqSlots[mb.reqID], i)
			t.alive[i] = t.p.RequestAlive(mb.reqID)
		case mb.id != "":
			t.instSlots[mb.id] = append(t.instSlots[mb.id], i)
			t.alive[i] = t.p.Alive(mb.id)
		}
		if t.alive[i] {
			t.aliveCount++
			t.aliveUnits += t.units[i]
		}
	}
	t.down = t.n == 0 || t.aliveUnits < t.quorumUnits
	if t.down {
		t.downSince = minute
	}
	if t.down != wasDown {
		t.emit(minute, t.down, t.aliveCount)
	}
}

// fleetUnits returns each member's capacity units (appended to buf),
// from the pool key's instance type. Unresolvable keys weigh one base
// node, so quorum accounting never silently drops a member.
func fleetUnits(members []member, spec strategy.ServiceSpec, buf []int) []int {
	for _, mb := range members {
		u, err := market.PoolCapacityUnits(mb.zone, spec.Type)
		if err != nil {
			u = market.UnitsPerNode
		}
		buf = append(buf, u)
	}
	return buf
}

// downThrough returns the total down minutes over [start, minute).
func (t *availTracker) downThrough(minute int64) int64 {
	if !t.started {
		return 0
	}
	if t.down {
		return t.downTotal + (minute - t.downSince)
	}
	return t.downTotal
}

// runEvent is the discrete-event kernel: the provider jumps between
// scheduled transitions, the tracker integrates availability from the
// event stream, and the loop below only wakes at decision minutes,
// interval boundaries, and the end of accounting.
func (r *run) runEvent() error {
	tr := &availTracker{spec: r.cfg.Spec, p: r.provider, emit: r.emitQuorum}
	r.provider.Subscribe(tr)
	for _, o := range r.cfg.Observers {
		r.provider.Subscribe(o)
	}
	rz := r.resize
	if rz != nil {
		rz.fleetChanged = func(minute int64) { tr.rebuild(r.fleet, minute) }
	}

	// Pre-roll to the first decision point.
	r.provider.AdvanceTo(r.cfg.Start - leadMinutes)
	if rz != nil {
		if err := rz.prepareDecision(r.cfg.Start - leadMinutes); err != nil {
			return err
		}
	}
	intervalLen, err := r.decideAndLaunch()
	if err != nil {
		return err
	}

	end := r.end
	// The first "boundary" installs the initial fleet at Start.
	nextBoundary := r.cfg.Start
	nextDecision := engine.NoMinute
	intervalStart := r.cfg.Start
	var flushed int64
	flush := func(endMinute int64) {
		cur := tr.downThrough(endMinute)
		r.res.Series = append(r.res.Series, IntervalStats{
			StartMinute:     intervalStart,
			IntervalMinutes: endMinute - intervalStart,
			GroupSize:       len(r.fleet),
			DownMinutes:     cur - flushed,
		})
		flushed = cur
		intervalStart = endMinute
	}
	for {
		wake := end - 1
		if nextDecision < wake {
			wake = nextDecision
		}
		if nextBoundary < wake {
			wake = nextBoundary
		}
		if rz != nil {
			if w := rz.nextWake(r.provider.Now(), nextBoundary-leadMinutes); w < wake {
				wake = w
				if now := r.provider.Now(); wake < now {
					wake = now
				}
			}
		}
		r.provider.AdvanceTo(wake)
		if wake == nextBoundary {
			// Close the elapsed interval against the outgoing fleet,
			// install the incoming one, then retire what it displaced.
			if wake > intervalStart {
				flush(wake)
			}
			if rz != nil {
				// A resize still in flight here (possible only when the
				// interval left no decision minute) dies with the old
				// fleet.
				if err := rz.abort(wake); err != nil {
					return err
				}
			}
			r.fleet = r.pending
			r.pending = nil
			tr.rebuild(r.fleet, wake)
			if err := r.retire(); err != nil {
				return err
			}
			nextBoundary = wake + intervalLen
			nextDecision = nextBoundary - leadMinutes
			if nextDecision < wake {
				// An interval shorter than the lead leaves no minute to
				// decide at; the polling loop never fires such a
				// decision either.
				nextDecision = engine.NoMinute
			}
		}
		if wake == nextDecision {
			if rz != nil {
				if err := rz.prepareDecision(wake); err != nil {
					return err
				}
			}
			if intervalLen, err = r.decideAndLaunch(); err != nil {
				return err
			}
			nextDecision = engine.NoMinute // next one set at the boundary
		}
		if rz != nil {
			if err := rz.act(wake, nextBoundary-leadMinutes); err != nil {
				return err
			}
		}
		if wake >= end-1 {
			break
		}
	}
	if intervalStart < end {
		flush(end)
	}
	r.res.TotalMinutes = end - r.cfg.Start
	r.res.DownMinutes = tr.downThrough(end)
	// Accounting is over: the user-terminations of the final bill
	// closure must not count as downtime.
	tr.closed = true
	return nil
}
