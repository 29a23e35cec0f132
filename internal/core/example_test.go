package core_test

import (
	"fmt"
	"log"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// ExampleJupiter_Decide trains the Jupiter bidding framework on spot-price
// history and obtains a bidding decision for a 5-node highly available
// service: the library's core loop.
func ExampleJupiter_Decide() {
	const week = 7 * 24 * 60

	// 1. A market: 13 weeks of per-zone spot price history across the
	//    paper's 17 availability zones (synthetic, deterministic).
	set, err := trace.Generate(trace.GenConfig{
		Seed:  1,
		Type:  market.M1Small,
		Zones: market.ExperimentZones(),
		Start: 0,
		End:   13*week + 24*60,
	})
	if err != nil {
		log.Fatal(err)
	}
	provider := cloud.NewProvider(set, cloud.Config{Seed: 1})
	provider.AdvanceTo(13 * week) // history accumulated

	// 2. The service to host: a distributed lock service — 5 replicas,
	//    majority quorum — whose availability must match an on-demand
	//    deployment.
	spec := strategy.ServiceSpec{Type: market.M1Small, BaseNodes: 5, DataShards: 1}
	fmt.Printf("availability target: %.7f\n", spec.TargetAvailability())

	// 3. Ask Jupiter for bids covering the next 1-hour interval. The
	//    provider is the market view: Jupiter trains on the history it
	//    has accumulated.
	j := core.New()
	decision, err := j.Decide(provider, spec, 60)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Place the bids with the cloud provider.
	fmt.Printf("Jupiter chose %d spot instances:\n", len(decision.Bids))
	var total market.Money
	for _, b := range decision.Bids {
		id, err := provider.RequestSpot(b.Zone, spec.Type, b.Price)
		if err != nil {
			log.Fatal(err)
		}
		spot, _ := provider.SpotPrice(b.Zone)
		fmt.Printf("  %-18s bid %-9s (spot %s) -> %s\n", b.Zone, b.Price, spot, id)
		total += b.Price
	}
	od, _ := market.OnDemandPrice("us-east-1a", spec.Type)
	fmt.Printf("bid-sum upper bound %s/h vs 5 on-demand instances at %s/h\n",
		total, od*5)

	// Output:
	// availability target: 0.9999901
	// Jupiter chose 5 spot instances:
	//   ap-southeast-2b    bid $0.0151   (spot $0.0098) -> i-spot-000001
	//   eu-west-1a         bid $0.0158   (spot $0.0117) -> i-spot-000002
	//   sa-east-1a         bid $0.0128   (spot $0.0083) -> i-spot-000003
	//   us-east-1a         bid $0.0137   (spot $0.0072) -> i-spot-000004
	//   us-west-1a         bid $0.0118   (spot $0.0062) -> i-spot-000005
	// bid-sum upper bound $0.0692/h vs 5 on-demand instances at $0.22/h
}
