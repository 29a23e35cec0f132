package cloud

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/market"
)

// TestScheduleActionRunsFirst pins that a scheduled control-plane
// action fires at its exact minute, before the other transitions of
// that minute: an action killing an instance at its promotion minute
// wins, and the stale promotion is skipped.
func TestScheduleActionRunsFirst(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 1})
	id, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.010))
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := p.Instance(id)
	var firedAt int64 = -1
	p.ScheduleAction(inst.RunningAt, func() {
		firedAt = p.Now()
		if err := p.ForceReclaim(id); err != nil {
			t.Errorf("ForceReclaim: %v", err)
		}
	})
	p.AdvanceTo(inst.RunningAt + 1)
	if firedAt != inst.RunningAt {
		t.Fatalf("action fired at %d, want %d", firedAt, inst.RunningAt)
	}
	got, _ := p.Instance(id)
	if got.State != Terminated || got.Cause != market.TerminatedByProvider {
		t.Fatalf("instance = %v/%v, want terminated by provider", got.State, got.Cause)
	}
	if got.RunningAt != got.TerminatedAt {
		t.Fatalf("reclaimed-while-pending instance has RunningAt %d != TerminatedAt %d",
			got.RunningAt, got.TerminatedAt)
	}
}

// TestZoneOutageKillsAndRefuses exercises the blackout primitive: all
// instances in the zone die as provider reclaims, one-shot launches are
// refused for the window, and launches succeed again after it lifts.
func TestZoneOutageKillsAndRefuses(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 1})
	spot, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.010))
	if err != nil {
		t.Fatal(err)
	}
	od, err := p.RequestOnDemand("us-east-1a", market.M1Small)
	if err != nil {
		t.Fatal(err)
	}
	p.AdvanceTo(20)

	p.ScheduleAction(30, func() { p.StartZoneOutage("us-east-1a", 90) })
	p.AdvanceTo(40)
	for _, id := range []InstanceID{spot, od} {
		inst, _ := p.Instance(id)
		if inst.State != Terminated || inst.TerminatedAt != 30 {
			t.Fatalf("%s = %v at %d, want terminated at 30", id, inst.State, inst.TerminatedAt)
		}
		if inst.Cause != market.TerminatedByProvider {
			t.Fatalf("%s cause = %v, want provider", id, inst.Cause)
		}
	}
	if _, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.010)); err == nil {
		t.Fatal("spot launch accepted during zone outage")
	}
	if _, err := p.RequestOnDemand("us-east-1a", market.M1Small); err == nil {
		t.Fatal("on-demand launch accepted during zone outage")
	}
	if down, until := p.zoneDown("us-east-1a"); !down || until != 90 {
		t.Fatalf("zone down %v until %d, want until 90", down, until)
	}

	p.AdvanceTo(90)
	if down, _ := p.zoneDown("us-east-1a"); down {
		t.Fatal("zone still down at the outage end")
	}
	if _, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.010)); err != nil {
		t.Fatalf("spot launch after outage end: %v", err)
	}
}

// TestZoneOutageDefersPersistentRequest pins that a persistent request
// whose instance dies in a blackout relaunches only once the window
// lifts (at the first affordable minute from the outage end).
func TestZoneOutageDefersPersistentRequest(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 1})
	req, err := p.RequestSpotPersistent("us-east-1a", market.M1Small, market.FromDollars(0.010))
	if err != nil {
		t.Fatal(err)
	}
	first := current(t, p, req)
	p.AdvanceTo(20)
	p.ScheduleAction(30, func() { p.StartZoneOutage("us-east-1a", 60) })

	p.AdvanceTo(59)
	if cur := current(t, p, req); cur != "" {
		t.Fatalf("request relaunched during outage: %s", cur)
	}
	p.AdvanceTo(61)
	cur := current(t, p, req)
	if cur == "" || cur == first {
		t.Fatalf("request not relaunched after outage (current %q)", cur)
	}
	inst, _ := p.Instance(cur)
	if inst.RequestedAt != 60 {
		t.Fatalf("relaunch at %d, want 60", inst.RequestedAt)
	}
}

// TestLaunchGateDropAndDelay exercises the market-request injector: a
// dropping gate turns launches into errors, a delaying gate stretches
// startup, and removing the gate restores normal behavior.
func TestLaunchGateDropAndDelay(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 1})
	p.SetLaunchGate(func(minute int64, zone string, spot bool) GateDecision {
		if spot {
			return GateDecision{Drop: true}
		}
		return GateDecision{DelayMinutes: 100}
	})
	if _, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.010)); err == nil {
		t.Fatal("gated spot launch succeeded, want drop")
	}
	od, err := p.RequestOnDemand("us-east-1a", market.M1Small)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := p.Instance(od)
	if d := inst.RunningAt - inst.RequestedAt; d < 104 || d > 112 {
		t.Fatalf("delayed startup took %d minutes, want 104..112", d)
	}
	p.SetLaunchGate(nil)
	if _, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.010)); err != nil {
		t.Fatalf("ungated spot launch: %v", err)
	}
}

// TestPublishEventStampsMinute pins that chaos fault events flow
// through the provider's fanout stamped with the simulated minute.
func TestPublishEventStampsMinute(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 1})
	var got []engine.Event
	p.Subscribe(&engine.Hooks{Fault: func(e engine.Event) { got = append(got, e) }})
	p.AdvanceTo(42)
	p.PublishEvent(engine.Event{Kind: engine.KindFaultInjected, Fault: "reclaim-storm", Zone: "us-east-1a"})
	if len(got) != 1 {
		t.Fatalf("observer saw %d fault events, want 1", len(got))
	}
	if got[0].Minute != 42 || got[0].Fault != "reclaim-storm" {
		t.Fatalf("event = %+v, want minute 42, fault reclaim-storm", got[0])
	}
}
