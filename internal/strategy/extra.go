package strategy

import (
	"fmt"

	"repro/internal/market"
)

// Extra is the paper's heuristic comparison strategy (§5.2): pick the
// BaseNodes+ExtraNodes cheapest feasible pools by current spot price
// and bid the spot price plus an extra portion (e.g. 0.1 or 0.2). Over
// a heterogeneous view it ranks pools by spot price per capacity unit
// and fills (BaseNodes+ExtraNodes)·UnitsPerNode units, like the
// on-demand baseline; single-type views reduce to exactly the paper's
// pick-n-cheapest-zones behaviour.
type Extra struct {
	// ExtraNodes is m of Extra(m, p).
	ExtraNodes int
	// Portion is p of Extra(m, p), e.g. 0.2 for a 20% margin.
	Portion float64
}

// Name implements Strategy.
func (e Extra) Name() string {
	return fmt.Sprintf("Extra(%d, %g)", e.ExtraNodes, e.Portion)
}

// Decide implements Strategy.
func (e Extra) Decide(view MarketView, spec ServiceSpec, intervalMinutes int64) (Decision, error) {
	keys, err := FeasiblePools(view, spec)
	if err != nil {
		return Decision{}, err
	}
	sel := cheapestUnits{need: (TargetNodes(view, spec) + e.ExtraNodes) * market.UnitsPerNode}
	for _, z := range keys {
		p, err := view.SpotPrice(z)
		if err != nil {
			return Decision{}, err
		}
		u, err := market.PoolCapacityUnits(z, spec.Type)
		if err != nil {
			return Decision{}, err
		}
		sel.offer(pricedPool{key: z, price: p, units: u})
	}
	var bids []Bid
	for _, z := range sel.picked {
		bids = append(bids, Bid{Zone: z.key, Price: z.price.Scale(1 + e.Portion)})
	}
	return Decision{Bids: bids}, nil
}
