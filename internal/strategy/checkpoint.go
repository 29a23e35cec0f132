package strategy

import (
	"fmt"
	"sort"

	"repro/internal/market"
	"repro/internal/trace"
)

// CheckpointRestart is a rival bidder from the related literature: the
// low-bid, checkpoint-and-restart style of Voorsluys & Buyya,
// "Reliable Provisioning of Spot Instances for Compute-Intensive
// Applications". The premise is that interruptions are survivable —
// work is checkpointed and a reclaimed node restarts elsewhere after
// RestartMinutes of lost progress — so the bidder can chase low prices
// instead of buying availability. Per pool it scores candidate bid
// levels b drawn from the recent price history's sojourn levels:
//
//	lost(b) = q(b)·interval + crossings(b)·RestartMinutes
//
// (out-of-bid time plus restart overhead per upward crossing of b) and
// takes the cheapest level whose expected lost time stays under
// checkpointMaxLostFraction of the interval, falling back to the level
// with the least lost time when none qualifies. Pools are then ranked by
// bid per capacity unit and BaseNodes·UnitsPerNode units are filled.
//
// The tournament stresses exactly its weak spot: lost(b) prices
// interruptions in time, not in the §3 availability guarantee, so under
// reclaim storms the fleet restarts its way below the Eq. 10 bound.
type CheckpointRestart struct {
	// RestartMinutes is the recovery cost charged per interruption.
	RestartMinutes int64
}

// The checkpointing bidder's tuning: checkpointMaxLostFraction bounds
// the acceptable expected lost time per interval, and
// checkpointLookbackMinutes is the estimation window.
const (
	checkpointMaxLostFraction = 0.05
	checkpointLookbackMinutes = 3 * 24 * 60
)

// NewCheckpointRestart returns a checkpointing bidder that charges
// restartMinutes per interruption.
func NewCheckpointRestart(restartMinutes int64) *CheckpointRestart {
	return &CheckpointRestart{RestartMinutes: restartMinutes}
}

// Name implements Strategy.
func (c *CheckpointRestart) Name() string {
	return fmt.Sprintf("Checkpoint(%dm)", c.RestartMinutes)
}

// Decide implements Strategy.
func (c *CheckpointRestart) Decide(view MarketView, spec ServiceSpec, intervalMinutes int64) (Decision, error) {
	now := view.Now()
	sel := cheapestUnits{need: TargetNodes(view, spec) * market.UnitsPerNode}
	for _, z := range view.Zones() {
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
		bid := cur
		if hist, err := view.PriceHistory(z, now-checkpointLookbackMinutes, now); err == nil && hist != nil && hist.End > hist.Start {
			bid = c.chooseBid(hist, cur, od, intervalMinutes)
		}
		sel.offer(pricedPool{key: z, price: bid, units: u})
	}
	var bids []Bid
	for _, z := range sel.picked {
		bids = append(bids, Bid{Zone: z.key, Price: z.price})
	}
	return Decision{Bids: bids}, nil
}

// chooseBid scores each candidate bid level between the current spot
// price and the on-demand price by expected lost minutes per interval.
func (c *CheckpointRestart) chooseBid(hist *trace.Trace, cur, od market.Money, intervalMinutes int64) market.Money {
	levels := candidateLevels(hist, cur, od)
	span := float64(hist.End - hist.Start)
	budget := checkpointMaxLostFraction * float64(intervalMinutes)
	best, bestLost := levels[0], 0.0
	haveBest := false
	for _, b := range levels {
		q := hist.FractionAbove(b)
		// Upward crossings of b per minute of history, scaled to one
		// interval, each charged RestartMinutes of recovery.
		rate := float64(upwardCrossings(hist, b)) / span
		lost := q*float64(intervalMinutes) + rate*float64(intervalMinutes)*float64(c.RestartMinutes)
		ok := lost <= budget
		switch {
		case !haveBest:
			best, bestLost, haveBest = b, lost, true
		case ok && b < best && bestLost <= budget:
			best, bestLost = b, lost
		case ok && bestLost > budget:
			best, bestLost = b, lost
		case !ok && bestLost > budget && lost < bestLost:
			best, bestLost = b, lost
		}
	}
	return best
}

// candidateLevels returns the distinct sojourn price levels of the
// history clamped to [cur, od], always including both endpoints, sorted
// ascending.
func candidateLevels(hist *trace.Trace, cur, od market.Money) []market.Money {
	seen := map[market.Money]bool{}
	var levels []market.Money
	add := func(m market.Money) {
		if m >= cur && m <= od && !seen[m] {
			seen[m] = true
			levels = append(levels, m)
		}
	}
	add(cur)
	for _, s := range hist.Sojourns() {
		add(s.Price)
	}
	if od >= cur {
		add(od)
	}
	if len(levels) == 0 {
		levels = append(levels, cur)
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	return levels
}

// upwardCrossings counts how often the history's price rises from at or
// below b to strictly above b — each crossing is one interruption for a
// node bidding b.
func upwardCrossings(hist *trace.Trace, b market.Money) int {
	n := 0
	prevAbove := false
	for i, s := range hist.Sojourns() {
		above := s.Price > b
		if i > 0 && above && !prevAbove {
			n++
		}
		prevAbove = above
	}
	return n
}
