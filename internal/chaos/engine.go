package chaos

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Engine compiles one scenario into faults against one run. An Engine
// is bound to a single replay (it owns the scenario's RNG stream and
// the armed provider); build a fresh one per run.
type Engine struct {
	sc    Scenario
	start int64 // absolute minute the replayed service goes live
	rng   *stats.RNG
	p     *cloud.Provider
}

// New validates the scenario and binds it to a run starting at the
// given absolute minute. seedOverride, when non-zero, replaces the
// scenario's own seed (the -chaos-seed flag).
func New(sc Scenario, seedOverride uint64, start int64) (*Engine, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	seed := sc.Seed
	if seedOverride != 0 {
		seed = seedOverride
	}
	return &Engine{sc: sc, start: start, rng: stats.NewRNG(seed)}, nil
}

// abs converts a scenario-relative minute to an absolute one.
func (e *Engine) abs(m int64) int64 { return e.start + m }

// TransformTraces applies the price-spike injectors, returning a new
// set with change points inserted at the window boundaries. Without
// spike injectors the input set is returned unchanged, so the
// zero-injector path keeps the original traces (and fingerprint); a
// pool no spike changes keeps its *Trace. An injector whose zone
// matches no pool of the set is an error: a typo there would inject
// nothing.
func (e *Engine) TransformTraces(set *trace.Set) (*trace.Set, error) {
	var spikes []Injector
	for i, inj := range e.sc.Injectors {
		found := inj.Zone == ""
		for key := range set.ByZone {
			found = found || inj.covers(key)
		}
		if !found {
			return nil, fmt.Errorf("chaos: injector %d (%s): zone %q matches no pool of the market", i, inj.Kind, inj.Zone)
		}
		if inj.Kind == PriceSpike {
			spikes = append(spikes, inj)
		}
	}
	if len(spikes) == 0 {
		return set, nil
	}
	out := trace.NewSet(set.Type, set.Start, set.End)
	var wins []window
	for _, key := range set.Zones() {
		tr := set.ByZone[key]
		wins = wins[:0]
		for _, inj := range spikes {
			// A window clamped empty, or a factor of 1, changes nothing.
			w := window{max(e.abs(inj.From), tr.Start), min(e.abs(inj.Until), tr.End), inj.Factor}
			if inj.covers(key) && w.from < w.until && w.factor != 1 {
				wins = append(wins, w)
			}
		}
		if err := out.AddPool(spike(tr, wins)); err != nil {
			return nil, fmt.Errorf("chaos: spiked trace for %s: %w", key, err)
		}
	}
	return out, nil
}

// window is one price-spike injector clamped to a trace's span.
type window struct {
	from, until int64
	factor      float64
}

// spike scales a trace's price over each window in turn, in one forward
// pass over its change points and the window edges, merging equal
// neighbours. No window returns the trace itself.
func spike(tr *trace.Trace, wins []window) *trace.Trace {
	if len(wins) == 0 {
		return tr
	}
	pts := tr.Points
	out := &trace.Trace{Zone: tr.Zone, Type: tr.Type, Start: tr.Start, End: tr.End,
		Points: make([]trace.PricePoint, 0, len(pts)+2*len(wins))}
	edge := nextEdge(wins, tr.Start, tr.End)
	for m, i := tr.Start, 0; ; {
		price := pts[i].Price
		for _, w := range wins {
			if m >= w.from && m < w.until {
				price = price.Scale(w.factor)
			}
		}
		if n := len(out.Points); n == 0 || out.Points[n-1].Price != price {
			out.Points = append(out.Points, trace.PricePoint{Minute: m, Price: price})
		}
		next := edge
		if i+1 < len(pts) && pts[i+1].Minute <= next {
			next = pts[i+1].Minute
			i++
		}
		if next >= tr.End {
			return out
		}
		if m = next; m == edge {
			edge = nextEdge(wins, m, tr.End)
		}
	}
}

// nextEdge returns the first window edge after minute m, or end.
func nextEdge(wins []window, m, end int64) int64 {
	for _, w := range wins {
		switch {
		case w.from > m:
			end = min(end, w.from)
		case w.until > m:
			end = min(end, w.until)
		}
	}
	return end
}

// TransformWorkload applies the flash-crowd injectors to the replay's
// request-rate trace, multiplying the rate by each injector's Factor
// over its window. Without flash-crowd injectors (or without a
// workload) the input is returned unchanged, so a scenario free of
// crowds keeps the original autoscaling plan bit for bit.
func (e *Engine) TransformWorkload(t *workload.Trace) *workload.Trace {
	if t == nil {
		return nil
	}
	for _, inj := range e.sc.Injectors {
		if inj.Kind == FlashCrowd {
			t = t.Scale(e.abs(inj.From), e.abs(inj.Until), inj.Factor)
		}
	}
	return t
}

// Arm schedules the scenario's faults on the provider: blackout and
// storm actions, informational window-boundary events for price spikes
// and trace gaps, and the launch gate for request delay/loss. A
// zero-injector scenario schedules nothing and installs nothing.
func (e *Engine) Arm(p *cloud.Provider) {
	e.p = p
	var gates []gateWindow
	for _, inj := range e.sc.Injectors {
		inj := inj
		from, until := e.abs(inj.From), e.abs(inj.Until)
		switch inj.Kind {
		case ZoneBlackout:
			p.ScheduleAction(from, func() {
				p.PublishEvent(engine.Event{
					Kind: engine.KindFaultInjected, Fault: inj.Kind,
					Zone: inj.Zone, Until: until,
				})
				p.StartZoneOutage(inj.Zone, until)
			})
			e.scheduleClear(from, until, inj.Kind, inj.Zone)
		case ReclaimStorm:
			p.ScheduleAction(from, func() { e.storm(inj, from) })
		case PriceSpike, TraceGap:
			// The fault itself lives in the transformed traces or the
			// wrapped market view; the actions only mark the window in
			// the event stream.
			p.ScheduleAction(from, func() {
				p.PublishEvent(engine.Event{
					Kind: engine.KindFaultInjected, Fault: inj.Kind,
					Zone: inj.Zone, Until: until,
				})
			})
			e.scheduleClear(from, until, inj.Kind, inj.Zone)
		case RequestDelay, RequestLoss:
			gates = append(gates, gateWindow{inj: inj, from: from, until: until})
		case FlashCrowd:
			// A load event, not an infrastructure fault: it acts entirely
			// through TransformWorkload and schedules nothing, so it stays
			// inert in a run without a workload.
		}
	}
	if len(gates) > 0 {
		p.SetLaunchGate(e.gateFunc(gates))
	}
}

// scheduleClear emits the fault-cleared marker at a window's end, when
// the end is still simulable.
func (e *Engine) scheduleClear(from, until int64, kind, zone string) {
	p := e.p
	if until >= p.End() {
		return
	}
	p.ScheduleAction(until, func() {
		p.PublishEvent(engine.Event{
			Kind: engine.KindFaultCleared, Fault: kind, Zone: zone, Until: from,
		})
	})
}

// covers reports whether the injector's zone scope includes a pool: an
// unscoped injector covers every pool, a zoned one the whole
// availability zone — "us-east-1a" and "us-east-1a/c3.large" alike.
func (inj Injector) covers(pool string) bool {
	return inj.Zone == "" || inj.Zone == market.PoolZone(pool)
}

// storm picks the victims of one reclamation storm among the live spot
// instances at the storm minute and reclaims each at a seeded offset
// within the spread window.
func (e *Engine) storm(inj Injector, from int64) {
	p := e.p
	type victim struct {
		id   cloud.InstanceID
		zone string
	}
	var cands []victim
	for _, id := range p.LiveInstances() {
		inst, err := p.Instance(id)
		if err != nil || !inst.Spot {
			continue
		}
		if !inj.covers(inst.Zone) {
			continue
		}
		cands = append(cands, victim{id: id, zone: inst.Zone})
	}
	k := inj.Count
	if k > len(cands) {
		k = len(cands)
	}
	p.PublishEvent(engine.Event{
		Kind: engine.KindFaultInjected, Fault: inj.Kind,
		Zone: inj.Zone, Size: k, Until: from + inj.SpreadMinutes,
	})
	if k == 0 {
		return
	}
	perm := e.rng.Perm(len(cands))
	for i := 0; i < k; i++ {
		v := cands[perm[i]]
		var offset int64
		if inj.SpreadMinutes > 0 {
			offset = e.rng.Int63n(inj.SpreadMinutes + 1)
		}
		p.ScheduleAction(from+offset, func() {
			inst, err := p.Instance(v.id)
			if err != nil || inst.State == cloud.Terminated {
				return // died on its own before the storm reached it
			}
			p.PublishEvent(engine.Event{
				Kind: engine.KindFaultInjected, Fault: inj.Kind,
				Zone: v.zone, Instance: string(v.id),
			})
			if err := p.ForceReclaim(v.id); err != nil {
				panic(fmt.Sprintf("chaos: reclaim %s: %v", v.id, err))
			}
		})
	}
}

// gateWindow is one armed request-delay/loss injector.
type gateWindow struct {
	inj         Injector
	from, until int64
}

// gateFunc builds the launch gate over the armed windows. The gate
// affects spot requests only: on-demand capacity is the contractual
// fallback the degradation logic leans on, mirroring how the paper
// treats on-demand instances as reliable.
func (e *Engine) gateFunc(gates []gateWindow) func(minute int64, zone string, spot bool) cloud.GateDecision {
	return func(minute int64, zone string, spot bool) cloud.GateDecision {
		if !spot {
			return cloud.GateDecision{}
		}
		var d cloud.GateDecision
		for _, g := range gates {
			if minute < g.from || minute >= g.until {
				continue
			}
			if !g.inj.covers(zone) {
				continue
			}
			if p := g.inj.Probability; p > 0 && p < 1 && !e.rng.Bool(p) {
				continue
			}
			if g.inj.Kind == RequestLoss {
				e.p.PublishEvent(engine.Event{
					Kind: engine.KindFaultInjected, Fault: RequestLoss, Zone: zone,
				})
				return cloud.GateDecision{Drop: true}
			}
			if g.inj.DelayMinutes > d.DelayMinutes {
				d.DelayMinutes = g.inj.DelayMinutes
				e.p.PublishEvent(engine.Event{
					Kind: engine.KindFaultInjected, Fault: RequestDelay,
					Zone: zone, Size: int(g.inj.DelayMinutes),
				})
			}
		}
		return d
	}
}

// GapAt reports whether the price feed of a zone, or of a pool in it,
// is inside an injected trace gap at the given minute, and if so the
// absolute minute the gap began (the last minute the feed was live).
// Overlapping gaps merge to the earliest start.
func (e *Engine) GapAt(zone string, minute int64) (int64, bool) {
	start, found := int64(0), false
	for _, inj := range e.sc.Injectors {
		if inj.Kind != TraceGap {
			continue
		}
		if !inj.covers(zone) {
			continue
		}
		from, until := e.abs(inj.From), e.abs(inj.Until)
		if minute >= from && minute < until && (!found || from < start) {
			start, found = from, true
		}
	}
	return start, found
}

// FingerprintSalt perturbs a trace fingerprint when the scenario
// changes what a strategy observes without changing the traces
// themselves (trace gaps), so shared model caches never alias a gapped
// view with the clean one. Scenarios without gaps salt nothing.
func (e *Engine) FingerprintSalt() uint64 {
	for _, inj := range e.sc.Injectors {
		if inj.Kind == TraceGap {
			return e.sc.hash() | 1 // never zero
		}
	}
	return 0
}

// StalePrice resolves a zone's price as seen through any active trace
// gap at the given minute: the pre-gap price with its age grown across
// the gap. ok reports whether a gap rewrote the observation.
func (e *Engine) StalePrice(p *cloud.Provider, zone string, minute int64) (market.Money, int64, bool, error) {
	gapStart, inGap := e.GapAt(zone, minute)
	if !inGap {
		return 0, 0, false, nil
	}
	price, err := p.SpotPriceAt(zone, gapStart)
	if err != nil {
		return 0, 0, false, err
	}
	age, err := p.SpotPriceAgeAt(zone, gapStart)
	if err != nil {
		return 0, 0, false, err
	}
	return price, age + (minute - gapStart), true, nil
}
