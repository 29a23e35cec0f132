package cloud

import (
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// current is a request's current instance ("" if none).
func current(t *testing.T, p *Provider, id RequestID) InstanceID {
	t.Helper()
	req, ok := p.requests[id]
	if !ok {
		t.Fatalf("unknown spot request %s", id)
	}
	return req.Current
}

// spikeSet: price $0.008, spikes to $0.02 during [100, 160), back down.
func spikeSet(t *testing.T) *trace.Set {
	t.Helper()
	return flatSet(t, []trace.PricePoint{
		{Minute: 0, Price: market.FromDollars(0.008)},
		{Minute: 100, Price: market.FromDollars(0.02)},
		{Minute: 160, Price: market.FromDollars(0.008)},
	}, 24*60)
}

func TestPersistentRequestRelaunches(t *testing.T) {
	p := NewProvider(spikeSet(t), Config{Seed: 1})
	req, err := p.RequestSpotPersistent("us-east-1a", market.M1Small, market.FromDollars(0.01))
	if err != nil {
		t.Fatal(err)
	}
	first := current(t, p, req)
	if first == "" {
		t.Fatal("no initial instance")
	}
	// Spike kills the instance...
	p.AdvanceTo(120)
	if p.RequestAlive(req) {
		t.Fatal("request alive during out-of-bid spike")
	}
	// ...and the request relaunches when the price returns.
	p.AdvanceTo(200)
	second := current(t, p, req)
	if second == "" || second == first {
		t.Fatalf("no relaunch: first=%s second=%s", first, second)
	}
	if !p.RequestAlive(req) {
		t.Fatal("relaunched instance not alive")
	}
	hist, err := p.RequestHistory(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history has %d instances, want 2", len(hist))
	}
}

func TestPersistentRequestDeferredLaunch(t *testing.T) {
	p := NewProvider(spikeSet(t), Config{Seed: 2})
	p.AdvanceTo(110) // during the spike
	req, err := p.RequestSpotPersistent("us-east-1a", market.M1Small, market.FromDollars(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if current(t, p, req) != "" {
		t.Fatal("instance launched above the bid")
	}
	p.AdvanceTo(200) // price back down
	if current(t, p, req) == "" {
		t.Fatal("request never fulfilled after price returned")
	}
}

func TestCancelSpotRequest(t *testing.T) {
	p := NewProvider(spikeSet(t), Config{Seed: 3})
	req, err := p.RequestSpotPersistent("us-east-1a", market.M1Small, market.FromDollars(0.01))
	if err != nil {
		t.Fatal(err)
	}
	p.AdvanceTo(50)
	if err := p.CancelSpotRequest(req, true); err != nil {
		t.Fatal(err)
	}
	if p.RequestAlive(req) {
		t.Fatal("alive after cancel+terminate")
	}
	// No relaunch after the spike clears.
	p.AdvanceTo(300)
	if current(t, p, req) != "" {
		t.Fatal("cancelled request relaunched")
	}
}

// TestRequestChargeTotalsAllInstances: a request's bill is the charge
// of every instance in its history, as the replay totals it — the one
// the spike killed and the relaunch, each billed.
func TestRequestChargeTotalsAllInstances(t *testing.T) {
	p := NewProvider(spikeSet(t), Config{Seed: 4})
	req, err := p.RequestSpotPersistent("us-east-1a", market.M1Small, market.FromDollars(0.01))
	if err != nil {
		t.Fatal(err)
	}
	p.AdvanceTo(400)
	if err := p.CancelSpotRequest(req, true); err != nil {
		t.Fatal(err)
	}
	hist, err := p.RequestHistory(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history has %d instances, want 2", len(hist))
	}
	for _, id := range hist {
		if c, err := p.Charge(id); err != nil || c <= 0 {
			t.Fatalf("instance %s charged %v (%v), want a bill", id, c, err)
		}
	}
}

func TestPersistentRequestValidation(t *testing.T) {
	p := NewProvider(spikeSet(t), Config{Seed: 5})
	if _, err := p.RequestSpotPersistent("nowhere-1z", market.M1Small, market.FromDollars(0.01)); err == nil {
		t.Fatal("unknown zone accepted")
	}
	if _, err := p.RequestSpotPersistent("us-east-1a", market.M3Large, market.FromDollars(0.01)); err == nil {
		t.Fatal("wrong type accepted")
	}
	od, _ := market.OnDemandPrice("us-east-1a", market.M1Small)
	if _, err := p.RequestSpotPersistent("us-east-1a", market.M1Small, od*5); err == nil {
		t.Fatal("over-cap bid accepted")
	}
	if err := p.CancelSpotRequest("sir-999999", false); err == nil {
		t.Fatal("unknown request cancelled")
	}
	if _, err := p.RequestHistory("sir-999999"); err == nil {
		t.Fatal("unknown request history served")
	}
	if p.RequestAlive("sir-999999") {
		t.Fatal("unknown request alive")
	}
}

// TestPersistentRequestGateDrop: opening a persistent request is a
// control-plane call, so a dropping launch gate loses it — an error,
// and no request and no instance left behind.
func TestPersistentRequestGateDrop(t *testing.T) {
	p := NewProvider(spikeSet(t), Config{Seed: 1})
	calls := 0
	p.SetLaunchGate(func(minute int64, zone string, spot bool) GateDecision {
		calls++
		return GateDecision{Drop: spot}
	})
	if _, err := p.RequestSpotPersistent("us-east-1a", market.M1Small, market.FromDollars(0.01)); err == nil {
		t.Fatal("gated persistent request opened, want drop")
	}
	if calls != 1 {
		t.Fatalf("gate consulted %d times, want 1", calls)
	}
	if len(p.requests) != 0 || len(p.active) != 0 {
		t.Fatalf("dropped request left %d requests and %d instances", len(p.requests), len(p.active))
	}
}

// TestPersistentRequestGateDelay: a delaying gate stretches the startup
// of the request's first instance only; the relaunch after the spike is
// the provider's own refulfilment loop, which the gate never sees.
func TestPersistentRequestGateDelay(t *testing.T) {
	p := NewProvider(spikeSet(t), Config{Seed: 1})
	calls := 0
	p.SetLaunchGate(func(minute int64, zone string, spot bool) GateDecision {
		calls++
		return GateDecision{DelayMinutes: 50}
	})
	req, err := p.RequestSpotPersistent("us-east-1a", market.M1Small, market.FromDollars(0.01))
	if err != nil {
		t.Fatal(err)
	}
	first, _ := p.Instance(current(t, p, req))
	if d := first.RunningAt - first.RequestedAt; d < 54 || d > 62 {
		t.Fatalf("first instance started in %d minutes, want 54..62", d)
	}
	p.AdvanceTo(200)
	second, _ := p.Instance(current(t, p, req))
	if second.ID == first.ID {
		t.Fatal("no relaunch after the spike")
	}
	if d := second.RunningAt - second.RequestedAt; d < 4 || d > 12 {
		t.Fatalf("relaunch started in %d minutes, want the ungated 4..12", d)
	}
	if calls != 1 {
		t.Fatalf("gate consulted %d times, want only for the opening call", calls)
	}
}
