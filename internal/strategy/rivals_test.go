package strategy_test

import (
	"testing"

	"repro/internal/market"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// spikeView hand-builds a two-pool market where us-east-1b's price jumps
// from floor to peak at spikeAt, while us-east-1a holds the floor, and
// returns the set (span [0, 4000)).
func spikeView(t *testing.T, floor, peak float64, spikeAt int64) *trace.Set {
	t.Helper()
	set := trace.NewSet(market.M1Small, 0, 4000)
	calm := &trace.Trace{
		Zone: "us-east-1a", Type: market.M1Small, Start: 0, End: 4000,
		Points: []trace.PricePoint{{Minute: 0, Price: market.FromDollars(floor)}},
	}
	spiky := &trace.Trace{
		Zone: "us-east-1b", Type: market.M1Small, Start: 0, End: 4000,
		Points: []trace.PricePoint{
			{Minute: 0, Price: market.FromDollars(floor)},
			{Minute: spikeAt, Price: market.FromDollars(peak)},
		},
	}
	for _, tr := range []*trace.Trace{calm, spiky} {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := set.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

func rivalSpec() strategy.ServiceSpec {
	return strategy.ServiceSpec{Type: market.M1Small, BaseNodes: 2, DataShards: 1}
}

// TestFeedbackInitialMarginAndPricedOut: a fresh controller seeds each
// pool's bid at spot times (1 + InitialMargin); once the spiky pool's
// price exceeds the standing bid, the controller refuses the market
// instead of chasing it, and the standing bid survives for recovery.
func TestFeedbackInitialMarginAndPricedOut(t *testing.T) {
	set := spikeView(t, 0.01, 1.0, 2000)
	f := strategy.NewFeedbackControl(0.03)

	before, err := f.Decide(&View{Set: set, Minute: 1500}, rivalSpec(), 180)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Bids) != 2 {
		t.Fatalf("pre-spike decision bids %d pools, want 2", len(before.Bids))
	}
	wantSeed := market.FromDollars(0.01).Scale(1 + f.InitialMargin)
	for _, b := range before.Bids {
		if b.Price != wantSeed {
			t.Errorf("pool %s seeded at %v, want %v", b.Zone, b.Price, wantSeed)
		}
	}

	after, err := f.Decide(&View{Set: set, Minute: 2100}, rivalSpec(), 180)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range after.Bids {
		if b.Zone == "us-east-1b" {
			t.Errorf("spiky pool still bid at %v during a 100x spike", b.Price)
		}
	}
	if len(after.Bids) == 0 {
		t.Error("calm pool dropped along with the spiky one")
	}
}

// TestFeedbackSteersTowardTarget: with the measured out-of-bid fraction
// above the reference, the controller raises the standing bid.
func TestFeedbackSteersTowardTarget(t *testing.T) {
	// Spike at minute 1000 of a 4000-minute span: by minute 3000 the
	// seeded low bid has been out of bid for half the lookback window.
	set := spikeView(t, 0.01, 0.05, 1000)
	f := strategy.NewFeedbackControl(0.03)
	first, err := f.Decide(&View{Set: set, Minute: 500}, rivalSpec(), 180)
	if err != nil {
		t.Fatal(err)
	}
	var seeded market.Money
	for _, b := range first.Bids {
		if b.Zone == "us-east-1b" {
			seeded = b.Price
		}
	}
	second, err := f.Decide(&View{Set: set, Minute: 3000}, rivalSpec(), 180)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range second.Bids {
		if b.Zone == "us-east-1b" && b.Price <= seeded {
			t.Errorf("out-of-bid pool's bid did not rise: %v -> %v", seeded, b.Price)
		}
	}
}

// TestPortfolioBudgetSplit pins the contract optimizer's two regimes:
// a generous cap buys the all-on-demand portfolio (maximum expected
// live units), a starvation cap falls back to the cheapest split —
// all-spot, nothing on demand.
func TestPortfolioBudgetSplit(t *testing.T) {
	view := GenView(t, 2014, 2)
	spec := rivalSpec()

	rich := strategy.NewPortfolioContract(10)
	d, err := rich.Decide(view, spec, 180)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bids) != 0 {
		t.Errorf("generous cap still placed %d spot bids", len(d.Bids))
	}
	if len(d.OnDemand) != spec.BaseNodes {
		t.Errorf("generous cap ran %d on-demand nodes, want %d", len(d.OnDemand), spec.BaseNodes)
	}

	poor := strategy.NewPortfolioContract(0.0001)
	d, err = poor.Decide(view, spec, 180)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.OnDemand) != 0 {
		t.Errorf("starvation cap still ran %d on-demand nodes", len(d.OnDemand))
	}
	if len(d.Bids) != spec.BaseNodes {
		t.Errorf("starvation cap placed %d spot bids, want %d", len(d.Bids), spec.BaseNodes)
	}
}

// TestCheckpointBidBounds: the chosen bid stays within [current spot,
// on-demand], and a punishing restart cost never buys a lower bid than
// a free one — restarts only push the bid up.
func TestCheckpointBidBounds(t *testing.T) {
	view := GenView(t, 2014, 2)
	spec := rivalSpec()
	cheap := strategy.NewCheckpointRestart(0)
	costly := strategy.NewCheckpointRestart(600)
	dCheap, err := cheap.Decide(view, spec, 180)
	if err != nil {
		t.Fatal(err)
	}
	dCostly, err := costly.Decide(view, spec, 180)
	if err != nil {
		t.Fatal(err)
	}
	cheapBid := map[string]market.Money{}
	for _, b := range dCheap.Bids {
		cheapBid[b.Zone] = b.Price
	}
	for _, b := range dCostly.Bids {
		cur, err := view.SpotPrice(b.Zone)
		if err != nil {
			t.Fatal(err)
		}
		od, err := market.PoolOnDemandPrice(b.Zone, spec.Type)
		if err != nil {
			t.Fatal(err)
		}
		if b.Price < cur || b.Price > od {
			t.Errorf("pool %s: bid %v outside [spot %v, od %v]", b.Zone, b.Price, cur, od)
		}
		if low, ok := cheapBid[b.Zone]; ok && b.Price < low {
			t.Errorf("pool %s: 600m-restart bid %v below free-restart bid %v", b.Zone, b.Price, low)
		}
	}
	if len(dCostly.Bids) == 0 {
		t.Fatal("checkpoint strategy placed no bids")
	}
}
