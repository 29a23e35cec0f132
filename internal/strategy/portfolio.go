package strategy

import (
	"fmt"
	"slices"
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
}

// The portfolio bidder's tuning: each spot bid sits at the
// portfolioBidQuantile time-weighted quantile of the pool's price
// history over the last portfolioLookbackMinutes.
const (
	portfolioBidQuantile     = 0.95
	portfolioLookbackMinutes = 3 * 24 * 60
)

// NewPortfolioContract returns a portfolio bidder with β = capFraction.
func NewPortfolioContract(capFraction float64) *PortfolioContract {
	return &PortfolioContract{CostCapFraction: capFraction}
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
	keys := view.Zones()
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
		if hist, err := view.PriceHistory(z, now-portfolioLookbackMinutes, now); err == nil && hist != nil && hist.End > hist.Start {
			pp.bid = quantilePrice(hist, portfolioBidQuantile)
			pp.eprice = hist.MeanPrice()
			pp.qout = hist.FractionAbove(pp.bid)
		}
		pools = append(pools, pp)
	}

	targetNodes := TargetNodes(view, spec)
	wantUnits := targetNodes * market.UnitsPerNode
	// On-demand tranche candidates cheapest-per-unit first: every
	// tranche below fills a prefix of the full group's selection. Spot
	// tranche candidates by expected live units per expected dollar —
	// i.e. prefer reliable-and-cheap pools.
	odRank := cheapestUnits{need: wantUnits}
	for _, pp := range pools {
		odRank.offer(pricedPool{key: pp.key, price: pp.od, units: pp.units})
	}
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

	fullOD := market.Money(0)
	for _, z := range odRank.picked {
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
		for _, z := range odRank.prefix(odNodes * market.UnitsPerNode) {
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
// at least fraction q of its span at or below it. It sums the minutes
// at each distinct price and walks the prices ascending.
func quantilePrice(t *trace.Trace, q float64) market.Money {
	minutes := map[market.Money]int64{}
	var total int64
	t.EachRun(func(s trace.Sojourn) {
		minutes[s.Price] += s.Minutes
		total += s.Minutes
	})
	prices := make([]market.Money, 0, len(minutes))
	for p := range minutes {
		prices = append(prices, p)
	}
	slices.Sort(prices)
	threshold := int64(q * float64(total))
	var cum int64
	var last market.Money // zero for an empty history
	for _, last = range prices {
		if cum += minutes[last]; cum >= threshold {
			return last
		}
	}
	return last
}
