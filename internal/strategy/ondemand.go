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
	keys, err := FeasiblePools(view, spec)
	if err != nil {
		return Decision{}, err
	}
	pools := make([]pricedPool, 0, len(keys))
	for _, z := range keys {
		od, err := market.PoolOnDemandPrice(z, spec.Type)
		if err != nil {
			return Decision{}, err
		}
		u, err := market.PoolCapacityUnits(z, spec.Type)
		if err != nil {
			return Decision{}, err
		}
		pools = append(pools, pricedPool{key: z, price: od, units: u})
	}
	sortPerUnit(pools)
	var zones []string
	for _, z := range fillUnits(pools, TargetNodes(view, spec)*market.UnitsPerNode) {
		zones = append(zones, z.key)
	}
	return Decision{OnDemand: zones}, nil
}

func init() {
	Register(Registration{
		Name:        "baseline",
		Description: "paper §5.2 baseline: BaseNodes' worth of on-demand capacity, never bids",
		Usage:       "baseline",
		Example:     "baseline",
		Build: func(args []string) (Builder, error) {
			if err := WantArgs("baseline", args, 0, 0); err != nil {
				return nil, err
			}
			return func() Strategy { return OnDemand{} }, nil
		},
	})
}
