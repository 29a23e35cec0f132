package telemetry

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/market"
)

// scriptedEvents is a small, hand-written run: two spot launches (one
// reclaimed out-of-bid), an on-demand launch, an outage, a quorum
// down/up pair, two billing closures, and two model trainings.
func scriptedEvents() []engine.Event {
	return []engine.Event{
		{Minute: 0, Kind: engine.KindModelTrained, Zone: "us-east-1a", Size: 0, DurationNanos: 2_000_000},
		{Minute: 0, Kind: engine.KindDecision, Size: 3},
		{Minute: 1, Kind: engine.KindInstanceLaunched, Instance: "i-1", Zone: "us-east-1a", Spot: true, Amount: market.FromDollars(0.009)},
		{Minute: 1, Kind: engine.KindInstanceLaunched, Instance: "i-2", Zone: "us-west-2b", Spot: true, Amount: market.FromDollars(0.012)},
		{Minute: 1, Kind: engine.KindInstanceLaunched, Instance: "i-3", Zone: "us-east-1a", Spot: false},
		{Minute: 5, Kind: engine.KindInstanceRunning, Instance: "i-1", Zone: "us-east-1a", Spot: true},
		{Minute: 6, Kind: engine.KindInstanceRunning, Instance: "i-2", Zone: "us-west-2b", Spot: true},
		{Minute: 7, Kind: engine.KindInstanceRunning, Instance: "i-3", Zone: "us-east-1a"},
		{Minute: 40, Kind: engine.KindOutageStart, Instance: "i-3", Zone: "us-east-1a", Until: 70},
		{Minute: 60, Kind: engine.KindInstanceTerminated, Instance: "i-2", Zone: "us-west-2b", Spot: true, Cause: market.TerminatedByProvider},
		{Minute: 60, Kind: engine.KindBillingClose, Instance: "i-2", Zone: "us-west-2b", Spot: true, Amount: market.FromDollars(0.01)},
		{Minute: 60, Kind: engine.KindQuorumDown, Size: 1},
		{Minute: 70, Kind: engine.KindOutageEnd, Instance: "i-3", Zone: "us-east-1a"},
		{Minute: 70, Kind: engine.KindQuorumUp, Size: 2},
		{Minute: 80, Kind: engine.KindModelTrained, Zone: "us-east-1a", Size: 1, DurationNanos: 500_000},
		{Minute: 90, Kind: engine.KindRequestFulfilled, Instance: "i-4", Request: "sir-1", Zone: "us-west-2b", Spot: true},
		{Minute: 95, Kind: engine.KindFaultInjected, Fault: "reclaim-storm", Zone: "us-west-2b", Instance: "i-4"},
		{Minute: 96, Kind: engine.KindFaultCleared, Fault: "zone-blackout", Zone: "us-east-1a", Until: 50},
		{Minute: 99, Kind: engine.KindInstanceTerminated, Instance: "i-1", Zone: "us-east-1a", Spot: true, Cause: market.TerminatedByUser},
		{Minute: 99, Kind: engine.KindBillingClose, Instance: "i-1", Zone: "us-east-1a", Spot: true, Amount: market.FromDollars(0.018)},
	}
}

// TestCollectorGoldenSnapshot replays the scripted sequence through a
// Collector and pins the resulting registry snapshot. The table doubles
// as documentation of the full metric vocabulary.
func TestCollectorGoldenSnapshot(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, Labels{Service: "lock", Strategy: "Jupiter", Interval: "3h"})
	f := engine.Fanout{c}
	for _, e := range scriptedEvents() {
		f.Publish(e)
	}
	c.CloseRun(100)

	snap := reg.Snapshot()
	value := func(s SeriesSnapshot) float64 { return s.Value }
	sum := func(s SeriesSnapshot) float64 { return s.Sum }
	count := func(s SeriesSnapshot) float64 { return float64(s.Count) }
	for _, want := range []struct {
		family string
		stat   func(SeriesSnapshot) float64
		labels []string // after the base service, strategy, interval
		v      float64
	}{
		// every kind is counted
		{"jupiter_events_total", value, []string{"instance-launched"}, 3},
		{"jupiter_events_total", value, []string{"instance-terminated"}, 2},
		{"jupiter_events_total", value, []string{"model-trained"}, 2},
		{"jupiter_events_total", value, []string{"request-fulfilled"}, 1},
		// launches split by zone and tier; the bid lands in the histogram
		{"jupiter_instance_launches_total", value, []string{"us-east-1a", "spot"}, 1},
		{"jupiter_instance_launches_total", value, []string{"us-east-1a", "on-demand"}, 1},
		{"jupiter_instance_launches_total", value, []string{"us-west-2b", "spot"}, 1},
		{"jupiter_spot_bid_dollars", count, []string{"us-west-2b"}, 1},
		// the reclaim shows up as interruption AND provider-caused termination
		{"jupiter_out_of_bid_total", value, []string{"us-west-2b"}, 1},
		{"jupiter_terminations_total", value, []string{"us-west-2b", "provider"}, 1},
		{"jupiter_terminations_total", value, []string{"us-east-1a", "user"}, 1},
		// outage count and duration (30 minutes)
		{"jupiter_outages_total", value, []string{"us-east-1a"}, 1},
		{"jupiter_outage_minutes", sum, []string{"us-east-1a"}, 30},
		// billing totals in micro-dollars: $0.01 and $0.018
		{"jupiter_billing_microusd_total", value, []string{"us-west-2b", "spot"}, 10000},
		{"jupiter_billing_microusd_total", value, []string{"us-east-1a", "spot"}, 18000},
		// one decision of size 3
		{"jupiter_decisions_total", value, nil, 1},
		{"jupiter_group_size", sum, nil, 3},
		// quorum transitions and the 10-minute down interval
		{"jupiter_quorum_transitions_total", value, []string{"down"}, 1},
		{"jupiter_quorum_transitions_total", value, []string{"up"}, 1},
		{"jupiter_downtime_minutes", sum, nil, 10},
		{"jupiter_quorum_live", value, nil, 2},
		// chaos faults by zone, fault kind, and phase
		{"jupiter_events_total", value, []string{"fault-injected"}, 1},
		{"jupiter_events_total", value, []string{"fault-cleared"}, 1},
		{"jupiter_faults_total", value, []string{"us-west-2b", "reclaim-storm", "injected"}, 1},
		{"jupiter_faults_total", value, []string{"us-east-1a", "zone-blackout", "cleared"}, 1},
		// model trainings split by mode, wall time in seconds
		{"jupiter_model_trainings_total", value, []string{"us-east-1a", "scratch"}, 1},
		{"jupiter_model_trainings_total", value, []string{"us-east-1a", "incremental"}, 1},
		{"jupiter_model_train_seconds", sum, []string{"scratch"}, 0.002},
		{"jupiter_model_train_seconds", sum, []string{"incremental"}, 0.0005},
	} {
		labels := append([]string{"lock", "Jupiter", "3h"}, want.labels...)
		if _, s, ok := lookup(snap, want.family, labels...); !ok || want.stat(s) != want.v {
			t.Errorf("%s%v = %+v (found %v), want %g", want.family, labels, s, ok, want.v)
		}
	}
	if t.Failed() {
		t.Logf("full snapshot:\n%+v", snap)
	}
}

// TestCollectorCloseRunOpenSpan: a run that ends while the service is
// down must still book the final down interval.
func TestCollectorCloseRunOpenSpan(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, Labels{Service: "lock", Strategy: "Jupiter", Interval: "1h"})
	engine.Dispatch(c, engine.Event{Minute: 10, Kind: engine.KindQuorumDown, Size: 0})
	c.CloseRun(35)
	if _, s, ok := lookup(reg.Snapshot(), "jupiter_downtime_minutes", "lock", "Jupiter", "1h"); !ok || s.Sum != 25 {
		t.Fatalf("open down span not closed: %+v (found %v), want 25 minutes", s, ok)
	}
}

// TestCollectorsSharedRegistry runs one collector per "cell" on a
// shared registry from concurrent goroutines — the parallel-sweep
// topology — and checks the cells' series stay separate and complete.
func TestCollectorsSharedRegistry(t *testing.T) {
	reg := NewRegistry()
	intervals := []string{"1h", "3h", "6h", "12h"}
	var wg sync.WaitGroup
	for _, iv := range intervals {
		wg.Add(1)
		go func(iv string) {
			defer wg.Done()
			c := NewCollector(reg, Labels{Service: "lock", Strategy: "Jupiter", Interval: iv})
			f := engine.Fanout{c}
			for i := 0; i < 500; i++ {
				f.Publish(engine.Event{Minute: int64(i), Kind: engine.KindInstanceTerminated,
					Zone: "us-east-1a", Spot: true, Cause: market.TerminatedByProvider})
			}
			c.CloseRun(500)
		}(iv)
	}
	wg.Wait()
	snap := reg.Snapshot()
	for _, iv := range intervals {
		if _, s, ok := lookup(snap, "jupiter_out_of_bid_total", "lock", "Jupiter", iv, "us-east-1a"); !ok || s.Value != 500 {
			t.Errorf("out-of-bid series of %s = %+v (found %v), want 500", iv, s, ok)
		}
	}
}

// TestCollectorScenarioLabel pins the Labels.Scenario contract: a
// scenario-stamped collector widens every series schema by one label,
// and mixing stamped and unstamped collectors on one registry is a
// schema conflict caught at construction — a tournament sets Scenario
// on every cell or on none.
func TestCollectorScenarioLabel(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, Labels{Service: "lock", Strategy: "Jupiter", Interval: "3h", Scenario: "storm-surge"})
	f := engine.Fanout{c}
	f.Publish(engine.Event{Minute: 1, Kind: engine.KindInstanceTerminated,
		Zone: "us-east-1a", Spot: true, Cause: market.TerminatedByProvider})
	fam, s, ok := lookup(reg.Snapshot(), "jupiter_out_of_bid_total", "lock", "Jupiter", "3h", "storm-surge", "us-east-1a")
	if !ok || s.Value != 1 || !slices.Equal(fam.Labels, []string{"service", "strategy", "interval", "scenario", "zone"}) {
		t.Fatalf("scenario-labelled out-of-bid series = %+v %+v (found %v), want 1 under {service,strategy,interval,scenario,zone}", fam, s, ok)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("mixing empty and non-empty Scenario on one registry did not panic")
		}
		msg := r.(string)
		if !strings.Contains(msg, "different schema") && !strings.Contains(msg, "different labels") {
			t.Fatalf("panic %q, want a schema/label conflict", msg)
		}
	}()
	NewCollector(reg, Labels{Service: "lock", Strategy: "Jupiter", Interval: "6h"})
}

// TestCollectorHotPathNoAlloc pins the collector's pay-for-what-you-use
// promise: once a zone's handles exist, folding an event into metrics
// allocates nothing.
func TestCollectorHotPathNoAlloc(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, Labels{Service: "lock", Strategy: "Jupiter", Interval: "3h"})
	f := engine.Fanout{c}
	warm := engine.Event{Minute: 1, Kind: engine.KindInstanceTerminated,
		Zone: "us-east-1a", Spot: true, Cause: market.TerminatedByProvider}
	f.Publish(warm) // builds the zone handles
	allocs := testing.AllocsPerRun(1000, func() {
		f.Publish(warm)
		f.Publish(engine.Event{Minute: 2, Kind: engine.KindBillingClose, Zone: "us-east-1a", Spot: true, Amount: 100})
		f.Publish(engine.Event{Minute: 3, Kind: engine.KindDecision, Size: 5})
	})
	if allocs != 0 {
		t.Errorf("warm event path: %v allocs per publish batch, want 0", allocs)
	}
}
