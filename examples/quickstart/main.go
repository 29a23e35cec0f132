// Quickstart: train the Jupiter bidding framework on spot-price
// history and obtain a bidding decision for a 5-node highly available
// service — the library's core loop in ~60 lines.
package main

import (
	"fmt"
	"log"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/market"
	"repro/internal/strategy"
	"repro/internal/trace"
)

func main() {
	// 1. A market: 13 weeks of per-zone spot price history across the
	//    paper's 17 availability zones (synthetic, deterministic).
	set, err := trace.Generate(trace.GenConfig{
		Seed:  1,
		Type:  market.M1Small,
		Zones: market.ExperimentZones(),
		Start: 0,
		End:   13*experiments.Week + 24*60,
	})
	if err != nil {
		log.Fatal(err)
	}
	provider := cloud.NewProvider(set, cloud.Config{Seed: 1})
	provider.AdvanceTo(13 * experiments.Week) // history accumulated

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
}
