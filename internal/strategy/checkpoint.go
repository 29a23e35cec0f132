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
// MaxLostFraction of the interval, falling back to the level with the
// least lost time when none qualifies. Pools are then ranked by bid per
// capacity unit and BaseNodes·UnitsPerNode units are filled.
//
// The tournament stresses exactly its weak spot: lost(b) prices
// interruptions in time, not in the §3 availability guarantee, so under
// reclaim storms the fleet restarts its way below the Eq. 10 bound.
type CheckpointRestart struct {
	// RestartMinutes is the recovery cost charged per interruption.
	RestartMinutes int64
	// MaxLostFraction bounds acceptable expected lost time per interval.
	MaxLostFraction float64
	// LookbackMinutes is the estimation window (default three days).
	LookbackMinutes int64
}

// NewCheckpointRestart returns a checkpointing bidder with the
// tournament defaults: 30-minute restarts, 5% acceptable lost time,
// three-day lookback.
func NewCheckpointRestart(restartMinutes int64) *CheckpointRestart {
	return &CheckpointRestart{
		RestartMinutes:  restartMinutes,
		MaxLostFraction: 0.05,
		LookbackMinutes: 3 * 24 * 60,
	}
}

// Name implements Strategy.
func (c *CheckpointRestart) Name() string {
	return fmt.Sprintf("Checkpoint(%dm)", c.RestartMinutes)
}

// Decide implements Strategy.
func (c *CheckpointRestart) Decide(view MarketView, spec ServiceSpec, intervalMinutes int64) (Decision, error) {
	keys, err := FeasiblePools(view, spec)
	if err != nil {
		return Decision{}, err
	}
	now := view.Now()
	pools := make([]pricedPool, 0, len(keys))
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
		bid := cur
		if hist, err := view.PriceHistory(z, now-c.LookbackMinutes, now); err == nil && hist != nil && hist.End > hist.Start {
			bid = c.chooseBid(hist, cur, od, intervalMinutes)
		}
		pools = append(pools, pricedPool{key: z, price: bid, units: u})
	}
	sortPerUnit(pools)
	var bids []Bid
	for _, z := range fillUnits(pools, TargetNodes(view, spec)*market.UnitsPerNode) {
		bids = append(bids, Bid{Zone: z.key, Price: z.price})
	}
	return Decision{Bids: bids}, nil
}

// chooseBid scores each candidate bid level between the current spot
// price and the on-demand price by expected lost minutes per interval.
func (c *CheckpointRestart) chooseBid(hist *trace.Trace, cur, od market.Money, intervalMinutes int64) market.Money {
	levels := candidateLevels(hist, cur, od)
	span := float64(hist.End - hist.Start)
	budget := c.MaxLostFraction * float64(intervalMinutes)
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

func init() {
	Register(Registration{
		Name:        "checkpoint",
		Description: "low-bid checkpoint/restart bidder with restart-cost accounting (Voorsluys & Buyya)",
		Usage:       "checkpoint | checkpoint(restartMinutes)",
		Example:     "checkpoint",
		Build: func(args []string) (Builder, error) {
			if err := WantArgs("checkpoint(restartMinutes)", args, 0, 1); err != nil {
				return nil, err
			}
			restart := 30
			if len(args) == 1 {
				r, err := ArgInt("restartMinutes", args[0])
				if err != nil {
					return nil, err
				}
				if r < 0 {
					return nil, fmt.Errorf("argument restartMinutes: %d < 0", r)
				}
				restart = r
			}
			return func() Strategy { return NewCheckpointRestart(int64(restart)) }, nil
		},
	})
}
