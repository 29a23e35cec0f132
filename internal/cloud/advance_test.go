package cloud

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/stats"
	"repro/internal/trace"
)

// advanceReference is AdvanceTo as it stood before hazard-only spans
// were drawn in one loop: every minute at which an instance is
// draw-eligible is stepped on its own through processMinuteReference.
// It is the oracle the span loop must match event for event and draw
// for draw.
func (p *Provider) advanceReference(minute int64) {
	if minute < p.now {
		panic(fmt.Sprintf("cloud: time moving backwards (%d -> %d)", p.now, minute))
	}
	if minute >= p.traces.End {
		panic(fmt.Sprintf("cloud: minute %d beyond trace end %d", minute, p.traces.End))
	}
	for p.now < minute {
		next := minute
		if p.hazardPerMinute > 0 && p.drawEligibleNextMinute() {
			next = p.now + 1
		} else {
			if t := p.timers.NextMinute(); t < next {
				next = t
			}
			if p.refulfilNext < next {
				next = p.refulfilNext
			}
			if next <= p.now {
				next = p.now + 1
			}
		}
		p.now = next
		p.processMinuteReference()
	}
}

// drawEligibleNextMinute reports whether any instance will take a
// hazard draw at minute now+1: Running (so promoted at or before now)
// and not in an outage extending past now+1.
func (p *Provider) drawEligibleNextMinute() bool {
	for _, inst := range p.active {
		if inst.State == Running && inst.downUntil <= p.now+1 {
			return true
		}
	}
	return false
}

// processMinuteReference applies everything that happens at minute
// p.now, in the order of the original per-minute loop: state
// transitions, then hazard draws over instances in creation order, then
// the persistent-request relaunch scan.
func (p *Provider) processMinuteReference() {
	m := p.now
	for {
		tm, ok := p.timers.PopDue(m)
		if !ok {
			break
		}
		p.applyTimer(tm.Payload)
	}
	if p.hazardPerMinute > 0 {
		for _, inst := range p.active {
			// Draw-eligible: running since before this minute and not in
			// an outage. Instances promoted or reclaimed at this minute
			// were already handled by their timers above.
			if inst.State == Running && inst.RunningAt < m && inst.downUntil <= m {
				if p.rng.Bool(p.hazardPerMinute) {
					inst.downUntil = m + 1 + p.rng.Int63n(2*p.mttrMinutes)
					p.timers.Schedule(inst.downUntil, int(tOutageEnd), timer{
						kind: tOutageEnd, inst: inst, until: inst.downUntil,
					})
					if p.observers.Active() {
						p.observers.Publish(engine.Event{
							Minute: m, Kind: engine.KindOutageStart,
							Instance: string(inst.ID), Zone: inst.Zone, Spot: inst.Spot,
							Until: inst.downUntil, Request: reqID(inst.req),
						})
					}
				}
			}
		}
	}
	if p.refulfilNext <= m {
		p.stepRequests()
	}
	if p.activeDirty {
		live := p.active[:0]
		for _, inst := range p.active {
			if inst.State != Terminated {
				live = append(live, inst)
			}
		}
		for i := len(live); i < len(p.active); i++ {
			p.active[i] = nil
		}
		p.active = live
		p.activeDirty = false
	}
}

// logEntry is one published event or one call's outcome, stamped with
// the provider's clock.
type logEntry struct {
	now   int64
	event engine.Event
	note  string
}

// recorder keeps every event the provider publishes, in order.
type recorder struct {
	engine.BaseObserver
	p   *Provider
	log []logEntry
}

func (r *recorder) add(e engine.Event) { r.log = append(r.log, logEntry{now: r.p.Now(), event: e}) }

func (r *recorder) OnInstance(e engine.Event) { r.add(e) }
func (r *recorder) OnOutOfBid(e engine.Event) { r.add(e) }
func (r *recorder) OnBilling(e engine.Event)  { r.add(e) }

// hazardZones are the pools of the differential market.
var hazardZones = []string{"us-east-1a", "us-east-1b", "eu-west-1a"}

// hazardMarket builds a market of random price staircases over
// hazardZones, end minutes long: prices hop every 1–600 minutes between
// $0.005 and $0.020, so bids between those levels are reclaimed and
// persistent requests relaunch throughout.
func hazardMarket(seed uint64, end int64) *trace.Set {
	rng := stats.NewRNG(seed)
	s := trace.NewSet(market.M1Small, 0, end)
	for _, z := range hazardZones {
		tr := &trace.Trace{Zone: z, Type: market.M1Small, Start: 0, End: end}
		for m := int64(0); m < end; m += 1 + rng.Int63n(600) {
			tr.Points = append(tr.Points, trace.PricePoint{Minute: m, Price: market.Money(5000 + 1000*rng.Int63n(16))})
		}
		if err := s.Add(tr); err != nil {
			panic(err)
		}
	}
	return s
}

// advanceRun is what one schedule did to one provider.
type advanceRun struct {
	log       []logEntry // every event and every call's outcome, in order
	instances []string   // every instance's final snapshot, by ID
	now       int64
	nextDraw  uint64 // the provider RNG's next output
}

// runSchedule drives a fresh provider through the schedule the seed
// and op bytes encode, moving time with advance. Each op byte picks a
// call; the seed's RNG draws its arguments. The provider's own hazard
// rate is set from the seed: the FP' default or a far higher one that
// makes same-minute hits common.
func runSchedule(seed uint64, ops []byte, advance func(p *Provider, minute int64)) advanceRun {
	const end = 8 * 7 * 24 * 60
	p := NewProvider(hazardMarket(seed, end), Config{Seed: seed, InjectHardwareFailures: true})
	p.hazardPerMinute = []float64{defaultHazard, 0.002, 0.02}[seed%3]
	rec := &recorder{p: p}
	p.Subscribe(rec)
	args := stats.NewRNG(seed ^ 0x5eed)
	var ids []InstanceID
	var reqs []RequestID
	note := func(format string, a ...any) {
		rec.log = append(rec.log, logEntry{now: p.Now(), note: fmt.Sprintf(format, a...)})
	}
	zone := func() string { return hazardZones[args.Intn(len(hazardZones))] }
	bid := func() market.Money { return market.Money(5000 + 1000*args.Int63n(18)) }
	pickID := func() InstanceID {
		if len(ids) == 0 || args.Intn(8) == 0 {
			return "i-none"
		}
		return ids[args.Intn(len(ids))]
	}
	for _, op := range ops {
		switch op % 10 {
		case 0:
			id, err := p.RequestSpot(zone(), market.M1Small, bid())
			note("spot %s %v", id, err)
			if err == nil {
				ids = append(ids, id)
			}
		case 1:
			id, err := p.RequestOnDemand(zone(), market.M1Small)
			note("od %s %v", id, err)
			if err == nil {
				ids = append(ids, id)
			}
		case 2:
			note("terminate %v", p.Terminate(pickID()))
		case 3:
			id, err := p.RequestSpotPersistent(zone(), market.M1Small, bid())
			note("persistent %s %v", id, err)
			if err == nil {
				reqs = append(reqs, id)
			}
		case 4:
			if len(reqs) > 0 {
				note("cancel %v", p.CancelSpotRequest(reqs[args.Intn(len(reqs))], args.Intn(2) == 0))
			}
		case 5:
			at := p.Now() + 1 + args.Int63n(2000)
			z, until := zone(), at+1+args.Int63n(300)
			p.ScheduleAction(at, func() {
				note("outage %s until %d", z, until)
				p.StartZoneOutage(z, until)
			})
		case 6:
			at, id := p.Now()+args.Int63n(2000), pickID()
			p.ScheduleAction(at, func() { note("reclaim %s %v", id, p.ForceReclaim(id)) })
		default:
			to := min(p.Now()+1+args.Int63n(10000), end-1)
			advance(p, to)
			note("advanced to %d", to)
			for _, id := range ids {
				note("%s alive=%v", id, p.Alive(id))
			}
		}
	}
	run := advanceRun{log: rec.log, now: p.Now(), nextDraw: p.rng.Uint64()}
	all := make([]InstanceID, 0, len(p.instances))
	for id := range p.instances {
		all = append(all, id)
	}
	slices.Sort(all)
	for _, id := range all {
		inst := *p.instances[id]
		req := reqID(inst.req)
		inst.req = nil
		run.instances = append(run.instances, fmt.Sprintf("%+v req=%s", inst, req))
	}
	return run
}

// checkAdvanceMatchesReference runs one schedule under AdvanceTo and
// under advanceReference and fails on the first difference.
func checkAdvanceMatchesReference(t *testing.T, seed uint64, ops []byte) {
	t.Helper()
	got := runSchedule(seed, ops, (*Provider).AdvanceTo)
	want := runSchedule(seed, ops, (*Provider).advanceReference)
	for i := range min(len(got.log), len(want.log)) {
		if got.log[i] != want.log[i] {
			t.Fatalf("seed %d: stream differs at entry %d:\n got %+v\nwant %+v", seed, i, got.log[i], want.log[i])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("seed %d: %d stream entries, reference %d", seed, len(got.log), len(want.log))
	}
	if !slices.Equal(got.instances, want.instances) {
		t.Fatalf("seed %d: instance snapshots differ:\n got %v\nwant %v", seed, got.instances, want.instances)
	}
	if got.now != want.now || got.nextDraw != want.nextDraw {
		t.Fatalf("seed %d: now %d, next draw %d; reference now %d, next draw %d",
			seed, got.now, got.nextDraw, want.now, want.nextDraw)
	}
}

// TestAdvanceMatchesReference: over random schedules of spot,
// on-demand and persistent launches, user terminations, cancellations,
// zone outages, forced reclaims and advances of 1 to 10 000 minutes,
// with hardware failures injected at three rates, the span loop gives
// the minute-stepping oracle's event stream, call outcomes, instance
// snapshots and next RNG draw.
func TestAdvanceMatchesReference(t *testing.T) {
	rng := stats.NewRNG(2014)
	for seed := uint64(0); seed < 48; seed++ {
		ops := make([]byte, 8+rng.Intn(32))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		checkAdvanceMatchesReference(t, seed, ops)
	}
}

func FuzzAdvance(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 1, 7, 3, 9, 2, 8})
	f.Add(uint64(2), []byte{1, 1, 1, 1, 1, 9, 9, 5, 9, 6, 9})
	f.Add(uint64(3), []byte{3, 3, 0, 7, 4, 8, 2, 9, 3, 7})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		checkAdvanceMatchesReference(t, seed, ops)
	})
}

// BenchmarkAdvanceHazards: five running instances through the 11
// replay weeks with hardware failures injected — the provider work of a
// rival replay between its decisions.
func BenchmarkAdvanceHazards(b *testing.B) {
	const end = 11 * 7 * 24 * 60
	set := hazardMarket(2014, end)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewProvider(set, Config{Seed: 2014, InjectHardwareFailures: true})
		for k := range 5 {
			if _, err := p.RequestOnDemand(hazardZones[k%len(hazardZones)], market.M1Small); err != nil {
				b.Fatal(err)
			}
		}
		p.AdvanceTo(end - 1)
	}
}
