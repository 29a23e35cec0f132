package core

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/provenance"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// fault builds the injected-fault event the chaos layer would publish.
func fault(zone string, minute int64) engine.Event {
	return engine.Event{
		Kind: engine.KindFaultInjected, Fault: "reclaim-storm",
		Zone: zone, Minute: minute,
	}
}

func TestHealthTrackerStagesAndDecay(t *testing.T) {
	j := New()
	if j.health != nil {
		t.Fatal("fresh framework carries a health tracker")
	}
	j.OnFault(fault("z1", 100))
	h := j.health
	if h == nil {
		t.Fatal("OnFault created no tracker")
	}
	if got := h.stage(100); got != stageDegraded {
		t.Fatalf("one fault: stage %v, want degraded", got)
	}
	for _, z := range []string{"z2", "z3", "z4"} {
		j.OnFault(fault(z, 101))
	}
	if got := h.stage(101); got != stageCritical {
		t.Fatalf("four faults: stage %v, want critical", got)
	}
	// Each faulted zone is quarantined for quarantineBase +- 25% jitter.
	for _, z := range []string{"z1", "z2", "z3", "z4"} {
		if !h.quarantined(z, 101+quarantineBase*3/4-5) {
			t.Fatalf("zone %s not quarantined inside the minimum window", z)
		}
		if h.quarantined(z, 101+quarantineBase*5/4+5) {
			t.Fatalf("zone %s still quarantined past the maximum window", z)
		}
	}
	if h.quarantined("z9", 101) {
		t.Fatal("unfaulted zone quarantined")
	}
	// A fault after the quarantine expired re-quarantines with a doubled
	// backoff: the second window is at least 2*base - 25% jitter long.
	refault := int64(101 + 2*quarantineBase)
	j.OnFault(fault("z1", refault))
	if !h.quarantined("z1", refault+2*quarantineBase*3/4-5) {
		t.Fatal("re-probe failure did not extend the backoff")
	}
	// Pressure decays: ten half-lives later everything is healthy again.
	later := refault + 10*healthHalfLife
	if got := h.stage(later); got != stageHealthy {
		t.Fatalf("stage %v after ten half-lives, want healthy", got)
	}
	if h.quarantined("z1", later) {
		t.Fatal("quarantine survived full decay")
	}
}

// TestHealthTrackerDeterministic pins that identical fault schedules
// yield identical quarantine windows (the seeded-jitter contract).
func TestHealthTrackerDeterministic(t *testing.T) {
	build := func() *healthTracker {
		j := New()
		for i, z := range []string{"a", "b", "c", "a", "b"} {
			j.OnFault(fault(z, int64(50+i*200)))
		}
		return j.health
	}
	h1, h2 := build(), build()
	for z, zh := range h1.zones {
		other := h2.zones[z]
		if other == nil || zh.until != other.until || zh.backoff != other.backoff {
			t.Fatalf("zone %s: %+v vs %+v", z, zh, other)
		}
	}
}

func TestJupiterDegradedAvoidsQuarantinedZone(t *testing.T) {
	view := genView(t, 42, 13)
	healthy := New()
	base, err := healthy.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Bids) == 0 {
		t.Fatal("healthy decision placed no bids")
	}
	bad := base.Bids[0].Zone

	j := New()
	j.OnFault(fault(bad, view.Now()-10))
	d, err := j.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if j.lastStage != stageDegraded {
		t.Fatalf("stage %v, want degraded", j.lastStage)
	}
	for _, b := range d.Bids {
		if b.Zone == bad {
			t.Fatalf("bid placed in quarantined zone %s", bad)
		}
	}
	for _, z := range d.OnDemand {
		if z == bad {
			t.Fatalf("on-demand substitute placed in quarantined zone %s", bad)
		}
	}
	if len(d.Bids) < 5 {
		t.Fatalf("one quarantined zone collapsed the spot group: %d bids", len(d.Bids))
	}
}

// stageView records the stage transitions a Decide publishes.
type stageView struct {
	traceView
	stages *[]engine.Event
}

func (v stageView) PublishEvent(e engine.Event) {
	if e.Kind == engine.KindStage {
		*v.stages = append(*v.stages, e)
	}
}

// TestJupiterCriticalHardensQuorumAndRecovers drives the framework
// through the full degradation arc: a storm's worth of faults forces a
// quorum of on-demand members; after the pressure decays the framework
// returns to pure spot bidding. Each stage change, and nothing else,
// publishes a stage event.
func TestJupiterCriticalHardensQuorumAndRecovers(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 42, Type: market.M1Small,
		Zones: market.ExperimentZones(),
		Start: 0, End: 16 * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stages []engine.Event
	view := stageView{traceView{set: set, now: 13*week - 1}, &stages}

	j := New()
	faulted := market.ExperimentZones()[:4]
	for _, z := range faulted {
		j.OnFault(fault(z, view.now-30))
	}
	d, err := j.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if j.lastStage != stageCritical {
		t.Fatalf("stage %v, want critical", j.lastStage)
	}
	n := len(d.Bids) + len(d.OnDemand)
	k := lockSpec().QuorumSize(n)
	if len(d.OnDemand) < k {
		t.Fatalf("critical decision has %d on-demand members, want a full quorum of %d (n=%d)",
			len(d.OnDemand), k, n)
	}
	for _, z := range append(append([]string{}, d.OnDemand...), zonesOf(d.Bids)...) {
		for _, q := range faulted {
			if z == q {
				t.Fatalf("member placed in quarantined zone %s", z)
			}
		}
	}

	// Three weeks of quiet market: pressure has decayed through many
	// half-lives and the quarantines have long expired.
	view.now = 16*week - 1
	d, err = j.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if j.lastStage != stageHealthy {
		t.Fatalf("stage %v after recovery, want healthy", j.lastStage)
	}
	if len(d.OnDemand) != 0 {
		t.Fatalf("recovered decision still holds on-demand members: %v", d.OnDemand)
	}
	if _, err := j.Decide(view, lockSpec(), 60); err != nil {
		t.Fatal(err)
	}
	want := []engine.Event{
		{Minute: 13*week - 1, Kind: engine.KindStage, Fault: "critical"},
		{Minute: 16*week - 1, Kind: engine.KindStage, Fault: "healthy"},
	}
	if !reflect.DeepEqual(stages, want) {
		t.Fatalf("stage events %+v, want %+v", stages, want)
	}
	if len(d.Bids) < 5 {
		t.Fatalf("recovered decision placed only %d bids", len(d.Bids))
	}
}

func zonesOf(bids []strategy.Bid) []string {
	var zs []string
	for _, b := range bids {
		zs = append(zs, b.Zone)
	}
	return zs
}

// oscillatingSet builds a five-zone market, with one pool per zone of the
// base type and of each extra type, whose price flips between a cheap
// level and one far above the on-demand price every half hour: no bid the
// on-demand cap allows can survive an interval, so every spot group is
// infeasible despite fully trained models.
func oscillatingSet(t *testing.T, base market.InstanceType, extra ...market.InstanceType) *trace.Set {
	t.Helper()
	set := trace.NewSet(base, 0, 4*week)
	for _, z := range market.ExperimentZones()[:5] {
		for _, it := range append([]market.InstanceType{base}, extra...) {
			if err := set.AddPool(oscillating(z, it, set.Start, set.End)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return set
}

// oscillating is one such pool's price series.
func oscillating(zone string, it market.InstanceType, start, end int64) *trace.Trace {
	tr := &trace.Trace{Zone: zone, Type: it, Start: start, End: end}
	for m := start; m < end; m += 60 {
		tr.Points = append(tr.Points,
			trace.PricePoint{Minute: m, Price: market.FromDollars(0.008)},
			trace.PricePoint{Minute: m + 30, Price: market.FromDollars(1.0)})
	}
	return tr
}

// oscillatingView is that market with m1.small zones only, positioned
// inside a low phase so bids clear the current price.
func oscillatingView(t *testing.T) traceView {
	return traceView{set: oscillatingSet(t, market.M1Small), now: 4*week - 55}
}

// TestCriticalBaselineGroupIsFeasible: a critical-stage Decide whose only
// group of BaseNodes base-node equivalents is five base-type on-demand
// nodes must choose it, at five on-demand prices. That group IS the
// baseline the availability target was computed from, and the exact DP
// reads it one ulp below that target (quorum's
// TestBaselineReadsOneUlpBelowItsOwnTarget) — a planner that gates it on
// the DP pays for a sixth node or gives up, which the pool planner did on
// typed markets whose cheapest-per-unit on-demand pools are base-type
// until it stopped putting W base nodes to the DP.
func TestCriticalBaselineGroupIsFeasible(t *testing.T) {
	for _, c := range []struct {
		name  string
		spec  strategy.ServiceSpec
		extra []market.InstanceType
	}{
		{"lock zone-only", lockSpec(), nil},
		{"lock typed", lockSpec(), []market.InstanceType{market.M1Medium}},
		{"theta(3,5) zone-only", strategy.ServiceSpec{Type: market.M3Large, BaseNodes: 5, DataShards: 3}, nil},
		{"theta(3,5) typed", strategy.ServiceSpec{Type: market.M3Large, BaseNodes: 5, DataShards: 3}, []market.InstanceType{market.M1Medium}},
	} {
		view := traceView{set: oscillatingSet(t, c.spec.Type, c.extra...), now: 4*week - 55}
		j := traced(New())
		for i := 0; i < 3; i++ {
			j.OnFault(fault("", view.now-10)) // market-wide: pressure, no quarantine
		}
		d, err := j.Decide(view, c.spec, 60)
		if err != nil {
			t.Fatal(err)
		}
		if j.lastStage != stageCritical {
			t.Fatalf("%s: stage %v, want critical", c.name, j.lastStage)
		}
		zones := market.ExperimentZones()[:5]
		var want market.Money
		for _, z := range zones {
			od, err := market.OnDemandPrice(z, c.spec.Type)
			if err != nil {
				t.Fatal(err)
			}
			want += od
			// The cell is about base-type on-demand pools being the
			// cheapest per capacity unit; make sure the catalog agrees.
			for _, it := range c.extra {
				key := market.PoolKey(z, it, c.spec.Type)
				price, perr := market.PoolOnDemandPrice(key, c.spec.Type)
				units, uerr := market.PoolCapacityUnits(key, c.spec.Type)
				if perr != nil || uerr != nil || perUnitCmp(od, market.UnitsPerNode, price, units) >= 0 {
					t.Fatalf("%s: on-demand %s is not dearer per unit than the base type; the cell is vacuous", c.name, key)
				}
			}
		}
		if len(d.Bids) != 0 || !reflect.DeepEqual(d.OnDemand, zones) {
			t.Errorf("%s: decision %+v, want the five base-type on-demand nodes %v", c.name, d, zones)
		}
		found := false
		for _, cand := range lastCandidates(j) {
			if cand.Nodes == c.spec.BaseNodes {
				found = true
				if !cand.Feasible || cand.CostUpper != want {
					t.Errorf("%s: size %d candidate %+v, want feasible at %v", c.name, cand.Nodes, cand, want)
				}
			}
		}
		if !found {
			t.Errorf("%s: size %d not enumerated: %+v", c.name, c.spec.BaseNodes, lastCandidates(j))
		}
	}
}

// TestChosenSpanCarriesWinningCandidateCost pins the one chosen-span
// schema on padded decisions, on a zone-only and on a typed market: the
// chosen span's cost is the planned cost of the group — bids plus
// on-demand prices, the figure its winning candidate span carried — and
// every on-demand member's bid span carries that member's price. (The
// zone planner's emitter left on-demand prices out of both, so analyze
// explain printed a sum below the candidate that won.) Each market has
// seven zones, two of which no bid survives in; one live zone faults, and once its
// quarantine has expired with the stage still degraded, a load target
// above the market's capacity makes the group every pool there is — the
// unbiddable ones as on-demand padding.
func TestChosenSpanCarriesWinningCandidateCost(t *testing.T) {
	const (
		trainWeeks = 3
		interval   = 180
		decides    = 8
	)
	spec := lockSpec()
	zones := market.ExperimentZones()[:7]
	for _, c := range []struct {
		name  string
		types []market.InstanceType
	}{
		{"zone-only", nil},
		{"typed", []market.InstanceType{market.M1Medium}},
	} {
		set, err := trace.Generate(trace.GenConfig{
			Seed: 2014, Type: spec.Type, Types: c.types, Zones: zones,
			Start: 0, End: trainWeeks*week + decides*interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		for key, tr := range set.ByZone {
			if tr.Zone == zones[5] || tr.Zone == zones[6] {
				set.ByZone[key] = oscillating(tr.Zone, tr.Type, set.Start, set.End)
			}
		}
		j := New()
		j.UseRecorder(provenance.NewRecorder(1))
		j.OnFault(fault(zones[0], trainWeeks*week-1))
		padded := 0
		for d := int64(0); d < decides; d++ {
			view := loadView{traceView: traceView{set: set, now: trainWeeks*week + d*interval}, target: 1000}
			dec, err := j.Decide(view, spec, interval)
			if err != nil {
				t.Fatal(err)
			}
			if j.lastStage != stageDegraded || len(dec.Bids) == 0 || len(dec.OnDemand) == 0 {
				continue
			}
			padded++
			var winner, chosen *provenance.Span
			priced := 0
			for _, s := range j.prov.Spans() {
				s := s
				switch {
				case s.Decision != d+1:
				case s.Kind == provenance.SpanCandidate && s.Outcome == "feasible" && (winner == nil || s.CostMicroUSD < winner.CostMicroUSD):
					winner = &s
				case s.Kind == provenance.SpanChosen:
					chosen = &s
				case s.Kind == provenance.SpanBid && s.Outcome == "on-demand":
					od, err := market.PoolOnDemandPrice(s.Pool, spec.Type)
					if err != nil {
						t.Fatal(err)
					}
					if s.BidMicroUSD != int64(od) {
						t.Errorf("%s decision %d: on-demand member %s priced %d, want %d", c.name, d+1, s.Pool, s.BidMicroUSD, od)
					}
					priced++
				}
			}
			if winner == nil || chosen == nil || chosen.CostMicroUSD != winner.CostMicroUSD {
				t.Errorf("%s decision %d: chosen span %+v, winning candidate %+v", c.name, d+1, chosen, winner)
			}
			if priced != len(dec.OnDemand) {
				t.Errorf("%s decision %d: %d on-demand bid spans for %d on-demand members", c.name, d+1, priced, len(dec.OnDemand))
			}
		}
		if padded == 0 {
			t.Errorf("%s: no degraded decision was padded with on-demand members; the pin is vacuous", c.name)
		}
	}
}

// TestJupiterFallbackWhenNoFeasibleBids forces the second fallback
// trigger: zone models train fine (states exist, candidates are
// enumerated) but no group size meets the availability target, so the
// decision must be the full on-demand baseline.
func TestJupiterFallbackWhenNoFeasibleBids(t *testing.T) {
	view := oscillatingView(t)
	j := traced(New())
	d, err := j.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bids) != 0 {
		t.Fatalf("placed %d spot bids in an unbiddable market", len(d.Bids))
	}
	if len(d.OnDemand) != 5 {
		t.Fatalf("fallback chose %d on-demand zones, want BaseNodes=5", len(d.OnDemand))
	}
	// The candidate table proves this was the no-feasible-n trigger, not
	// the no-models one: sizes were enumerated and all rejected.
	cands := lastCandidates(j)
	if len(cands) != 5 {
		t.Fatalf("enumerated %d candidates, want 5", len(cands))
	}
	sawTarget := false
	for _, c := range cands {
		if c.Feasible {
			t.Fatalf("candidate n=%d feasible in an unbiddable market", c.Nodes)
		}
		if c.FPTarget > 0 {
			sawTarget = true
		}
	}
	if !sawTarget {
		t.Fatal("no candidate carried an FP target; states were never built")
	}
}

// TestJupiterFallbackWhenNoModels pins the other trigger — no zone has
// trainable history — and that it bypasses candidate enumeration.
func TestJupiterFallbackWhenNoModels(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 42, Type: market.M1Small,
		Zones: market.ExperimentZones(),
		Start: 0, End: 2 * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	view := traceView{set: set, now: 1}
	j := traced(New())
	d, err := j.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.OnDemand) != 5 || len(d.Bids) != 0 {
		t.Fatalf("fallback decision = %d bids, %d on-demand, want 0/5", len(d.Bids), len(d.OnDemand))
	}
	if len(lastCandidates(j)) != 0 {
		t.Fatal("no-model fallback enumerated candidates")
	}
}
