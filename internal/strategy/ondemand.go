package strategy

import "repro/internal/market"

// OnDemand is the baseline (§5.2): BaseNodes base nodes' worth of
// on-demand capacity in the cheapest pools, never bidding. Over a
// single-type view it picks exactly the BaseNodes cheapest zones, as
// the paper's baseline does; over a heterogeneous view it ranks
// feasible pools by on-demand price per capacity unit and fills
// BaseNodes·UnitsPerNode units.
type OnDemand struct{}

// Name implements Strategy.
func (OnDemand) Name() string { return "Baseline" }

// Decide implements Strategy.
func (OnDemand) Decide(view MarketView, spec ServiceSpec, intervalMinutes int64) (Decision, error) {
	sel := cheapestUnits{need: TargetNodes(view, spec) * market.UnitsPerNode}
	for _, z := range view.Zones() {
		od, err := market.PoolOnDemandPrice(z, spec.Type)
		if err != nil {
			return Decision{}, err
		}
		u, err := market.PoolCapacityUnits(z, spec.Type)
		if err != nil {
			return Decision{}, err
		}
		sel.offer(pricedPool{key: z, price: od, units: u})
	}
	var zones []string
	for _, z := range sel.picked {
		zones = append(zones, z.key)
	}
	return Decision{OnDemand: zones}, nil
}
