package replay

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/strategy"
)

func TestPersistentRequestsImproveAvailability(t *testing.T) {
	// With one-shot requests, a zone whose instance dies mid-interval
	// stays empty until the next decision; persistent requests relaunch
	// as soon as the price returns, so availability can only improve.
	set := genTraces(t, 21, 2, market.M1Small)
	oneShot, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: strategy.Extra{ExtraNodes: 0, Portion: 0.2},
		IntervalMinutes: 6 * 60, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	persistent, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: strategy.Extra{ExtraNodes: 0, Portion: 0.2},
		IntervalMinutes: 6 * 60, Seed: 21, PersistentRequests: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if persistent.Availability < oneShot.Availability {
		t.Fatalf("persistent availability %v below one-shot %v",
			persistent.Availability, oneShot.Availability)
	}
	// The auto-heal must actually have fired at least once on this
	// volatile strategy.
	if persistent.Availability == oneShot.Availability && persistent.Cost == oneShot.Cost {
		t.Log("warning: persistent mode made no observable difference on this seed")
	}
}

func TestPersistentRequestsWithJupiter(t *testing.T) {
	set := genTraces(t, 22, 1, market.M1Small)
	res, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: core.New(),
		IntervalMinutes: 60, Seed: 22, PersistentRequests: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability < 0.999 {
		t.Fatalf("availability %v", res.Availability)
	}
	if res.Cost == 0 || res.SpotLaunch == 0 {
		t.Fatalf("no spot activity: %+v", res)
	}
}

func TestAdaptiveIntervalReplay(t *testing.T) {
	set := genTraces(t, 23, 2, market.M1Small)
	res, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: core.NewAdaptive(),
		IntervalMinutes: 60, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "Jupiter-adaptive" {
		t.Fatalf("strategy %q", res.Strategy)
	}
	if res.Availability < 0.99 {
		t.Fatalf("adaptive availability %v", res.Availability)
	}
	// Adaptive intervals are at least 1h, so over 2 weeks there are at
	// most ~336 decisions and at least ~28 (12h maximum interval).
	if res.Decisions < 2 || res.Decisions > 340 {
		t.Fatalf("decisions = %d", res.Decisions)
	}
}

// TestPersistentRequestsSeeFlakyMarket: the flaky-market scenario loses
// and delays spot launch calls for a day, and opening a persistent
// request is such a call, so a persistent replay under it must differ
// from the same replay on a calm market.
func TestPersistentRequestsSeeFlakyMarket(t *testing.T) {
	set := genTraces(t, 24, 1, market.M1Small)
	sc, ok := chaos.Builtin("flaky-market")
	if !ok {
		t.Fatal("flaky-market builtin missing")
	}
	run := func(sc *chaos.Scenario) *Result {
		res, err := Run(Config{
			Traces: set, Start: 13 * week,
			Spec: lockSpec(), Strategy: strategy.Extra{ExtraNodes: 0, Portion: 0.2},
			IntervalMinutes: 60, Seed: 24, PersistentRequests: true, Chaos: sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	calm, flaky := run(nil), run(&sc)
	if flaky.FailedRequests == 0 {
		t.Fatalf("no request failed under flaky-market (%d spot launches)", flaky.SpotLaunch)
	}
	if flaky.Cost == calm.Cost && flaky.Availability == calm.Availability {
		t.Fatalf("flaky-market persistent replay equals calm: cost %v, availability %v", calm.Cost, calm.Availability)
	}
}
