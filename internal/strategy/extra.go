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
	pools := make([]pricedPool, 0, len(keys))
	for _, z := range keys {
		p, err := view.SpotPrice(z)
		if err != nil {
			return Decision{}, err
		}
		u, err := market.PoolCapacityUnits(z, spec.Type)
		if err != nil {
			return Decision{}, err
		}
		pools = append(pools, pricedPool{key: z, price: p, units: u})
	}
	sortPerUnit(pools)
	var bids []Bid
	for _, z := range fillUnits(pools, (TargetNodes(view, spec)+e.ExtraNodes)*market.UnitsPerNode) {
		bids = append(bids, Bid{Zone: z.key, Price: z.price.Scale(1 + e.Portion)})
	}
	return Decision{Bids: bids}, nil
}

func init() {
	Register(Registration{
		Name:        "extra",
		Description: "paper §5.2 heuristic: n+m cheapest pools at spot price times (1+p)",
		Usage:       "extra(m, p)",
		Example:     "extra(2, 0.2)",
		Build: func(args []string) (Builder, error) {
			if err := WantArgs("extra(m, p)", args, 2, 2); err != nil {
				return nil, err
			}
			m, err := ArgInt("m", args[0])
			if err != nil {
				return nil, err
			}
			if m < 0 {
				return nil, fmt.Errorf("argument m: %d < 0", m)
			}
			p, err := ArgFloat("p", args[1])
			if err != nil {
				return nil, err
			}
			if p < 0 {
				return nil, fmt.Errorf("argument p: %g < 0", p)
			}
			return func() Strategy { return Extra{ExtraNodes: m, Portion: p} }, nil
		},
	})
}
