package strategy

import (
	"fmt"
	"sort"

	"repro/internal/market"
	"repro/internal/trace"
)

// PortfolioContract is a rival bidder from the related literature: the
// optimized on-demand + spot portfolio of Zhang, Ghosh & Aggarwal,
// "Optimized Portfolio Contracts for Bidding the Cloud" (arXiv
// 1811.12901). Each interval it solves a small contract-design
// problem: split the group's BaseNodes·UnitsPerNode capacity units
// between an on-demand tranche (reliable, expensive) and a spot
// tranche (bid at a history quantile, interruptible), maximizing the
// expected number of live units subject to an expected-cost cap of
// CostCapFraction times the all-on-demand cost:
//
//	maximize   odUnits + Σ_spot units_z · (1 − q_z(bid_z))
//	subject to E[cost] = Σ_od OD_z + Σ_spot E[price_z] ≤ β · Σ OD
//
// where q_z(b) is the observed out-of-bid fraction of bid b over the
// lookback window and E[price_z] its time-weighted mean. The split is
// found by enumerating the on-demand tranche size in whole base nodes —
// the portfolio dimension the paper optimizes over — with pools ranked
// per capacity unit as the baseline does.
type PortfolioContract struct {
	// CostCapFraction is β, the expected-cost budget relative to
	// running the whole group on demand.
	CostCapFraction float64
	// BidQuantile sets each spot bid at this time-weighted quantile of
	// the pool's recent price history.
	BidQuantile float64
	// LookbackMinutes is the estimation window (default three days).
	LookbackMinutes int64
}

// NewPortfolioContract returns a portfolio bidder with the tournament
// defaults: β = 0.6, 95th-percentile bids, three-day lookback.
func NewPortfolioContract(capFraction float64) *PortfolioContract {
	return &PortfolioContract{
		CostCapFraction: capFraction,
		BidQuantile:     0.95,
		LookbackMinutes: 3 * 24 * 60,
	}
}

// Name implements Strategy.
func (p *PortfolioContract) Name() string {
	return fmt.Sprintf("Portfolio(%g)", p.CostCapFraction)
}

// portfolioPool is one pool's estimated contract terms.
type portfolioPool struct {
	key    string
	units  int
	od     market.Money // on-demand price
	bid    market.Money // quantile bid
	eprice market.Money // expected spot price while running
	qout   float64      // out-of-bid fraction at bid
}

// Decide implements Strategy.
func (p *PortfolioContract) Decide(view MarketView, spec ServiceSpec, intervalMinutes int64) (Decision, error) {
	keys, err := FeasiblePools(view, spec)
	if err != nil {
		return Decision{}, err
	}
	now := view.Now()
	pools := make([]portfolioPool, 0, len(keys))
	for _, z := range keys {
		cur, err := view.SpotPrice(z)
		if err != nil {
			return Decision{}, err
		}
		od, err := market.PoolOnDemandPrice(z, spec.Type)
		if err != nil {
			return Decision{}, err
		}
		u, err := market.PoolCapacityUnits(z, spec.Type)
		if err != nil {
			return Decision{}, err
		}
		pp := portfolioPool{key: z, units: u, od: od, bid: cur, eprice: cur, qout: 0}
		if hist, err := view.PriceHistory(z, now-p.LookbackMinutes, now); err == nil && hist != nil && hist.End > hist.Start {
			pp.bid = quantilePrice(hist, p.BidQuantile)
			pp.eprice = hist.MeanPrice()
			pp.qout = hist.FractionAbove(pp.bid)
		}
		pools = append(pools, pp)
	}

	// On-demand tranche candidates cheapest-per-unit first; spot
	// tranche candidates by expected live units per expected dollar —
	// i.e. prefer reliable-and-cheap pools.
	odRank := make([]pricedPool, len(pools))
	for i, pp := range pools {
		odRank[i] = pricedPool{key: pp.key, price: pp.od, units: pp.units}
	}
	sortPerUnit(odRank)
	spotRank := append([]portfolioPool(nil), pools...)
	sort.Slice(spotRank, func(i, j int) bool {
		a, b := spotRank[i], spotRank[j]
		// live_units/E[$], cross-multiplied; ties broken by key so the
		// ranking is deterministic.
		av := float64(a.units) * (1 - a.qout) * float64(b.eprice)
		bv := float64(b.units) * (1 - b.qout) * float64(a.eprice)
		if av != bv {
			return av > bv
		}
		return a.key < b.key
	})

	targetNodes := TargetNodes(view, spec)
	wantUnits := targetNodes * market.UnitsPerNode
	fullOD := market.Money(0)
	for _, z := range fillUnits(odRank, wantUnits) {
		fullOD += z.price
	}
	budget := fullOD.Scale(p.CostCapFraction)

	type plan struct {
		od       []string
		bids     []Bid
		cost     market.Money
		expected float64 // expected live units
	}
	var best plan
	haveBest := false
	for odNodes := 0; odNodes <= targetNodes; odNodes++ {
		var pl plan
		taken := map[string]bool{}
		for _, z := range fillUnits(odRank, odNodes*market.UnitsPerNode) {
			pl.od = append(pl.od, z.key)
			pl.cost += z.price
			pl.expected += float64(z.units)
			taken[z.key] = true
		}
		needSpot := wantUnits - odNodes*market.UnitsPerNode
		got := 0
		for _, pp := range spotRank {
			if needSpot <= 0 || got >= needSpot {
				break
			}
			if taken[pp.key] {
				continue
			}
			pl.bids = append(pl.bids, Bid{Zone: pp.key, Price: pp.bid})
			pl.cost += pp.eprice
			pl.expected += float64(pp.units) * (1 - pp.qout)
			got += pp.units
		}
		feasible := pl.cost <= budget
		if !haveBest {
			best, haveBest = pl, true
			continue
		}
		bestFeasible := best.cost <= budget
		better := false
		switch {
		case feasible && !bestFeasible:
			better = true
		case feasible && bestFeasible:
			// Within budget: maximize expected live units, then price.
			better = pl.expected > best.expected ||
				(pl.expected == best.expected && pl.cost < best.cost)
		case !feasible && !bestFeasible:
			// Nothing fits: best effort toward the cap — cheapest split.
			better = pl.cost < best.cost ||
				(pl.cost == best.cost && pl.expected > best.expected)
		}
		if better {
			best = pl
		}
	}
	sort.Slice(best.bids, func(i, j int) bool { return best.bids[i].Zone < best.bids[j].Zone })
	sort.Strings(best.od)
	return Decision{Bids: best.bids, OnDemand: best.od}, nil
}

// quantilePrice returns the time-weighted q-quantile of the trace's
// prices: the smallest observed price level such that the trace spent
// at least fraction q of its span at or below it.
func quantilePrice(t *trace.Trace, q float64) market.Money {
	sojourns := t.Sojourns()
	if len(sojourns) == 0 {
		return 0
	}
	sort.Slice(sojourns, func(i, j int) bool { return sojourns[i].Price < sojourns[j].Price })
	var total int64
	for _, s := range sojourns {
		total += s.Minutes
	}
	threshold := int64(q * float64(total))
	var cum int64
	for _, s := range sojourns {
		cum += s.Minutes
		if cum >= threshold {
			return s.Price
		}
	}
	return sojourns[len(sojourns)-1].Price
}

func init() {
	Register(Registration{
		Name:        "portfolio",
		Description: "optimized on-demand/spot portfolio under an expected-cost cap (arXiv 1811.12901)",
		Usage:       "portfolio | portfolio(beta)",
		Example:     "portfolio",
		Build: func(args []string) (Builder, error) {
			if err := WantArgs("portfolio(beta)", args, 0, 1); err != nil {
				return nil, err
			}
			beta := 0.6
			if len(args) == 1 {
				b, err := ArgFloat("beta", args[0])
				if err != nil {
					return nil, err
				}
				if b <= 0 {
					return nil, fmt.Errorf("argument beta: %g <= 0", b)
				}
				beta = b
			}
			return func() Strategy { return NewPortfolioContract(beta) }, nil
		},
	})
}
