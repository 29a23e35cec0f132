package strategy

import (
	"fmt"

	"repro/internal/market"
)

// FeedbackControl is a rival bidder from the related literature: the
// feedback-control bidding mechanism of Li, Kihl & Robertsson, "On a
// Feedback Control-based Mechanism of Bidding for Cloud Spot Service"
// (arXiv 1708.01391). Instead of modelling the price process, a PI
// controller per pool steers the standing bid so that the measured
// out-of-bid fraction over a lookback window tracks a reference ε:
//
//	e_t      = measured(bid_t) − ε          (PriceHistory.FractionAbove)
//	I_t      = clamp(I_{t−1} + e_t)
//	bid_{t+1} = bid_t · (1 + Kp·e_t + Ki·I_t), clamped to [spot, 4·OD]
//
// A pool whose controller output sits below the current spot price is
// "priced out" this interval and receives no bid — the controller, not
// an availability model, decides when a market is too expensive, which
// is exactly the behaviour the tournament stresses under price surges.
// Pools are ranked by bid per capacity unit and BaseNodes·UnitsPerNode
// units are filled, like the on-demand baseline's heterogeneous view.
type FeedbackControl struct {
	// TargetOutOfBid is ε, the reference out-of-bid fraction the
	// controller steers each pool toward.
	TargetOutOfBid float64

	state map[string]*feedbackState
}

// feedbackState is one pool's controller state.
type feedbackState struct {
	bid      market.Money
	integral float64
}

// The controller's tuning. feedbackKp and feedbackKi are the
// proportional and integral gains, feedbackLookbackMinutes the
// measurement window, and feedbackInitialMargin seeds a pool's first
// bid at spot·(1+feedbackInitialMargin).
const (
	feedbackKp              = 2.0
	feedbackKi              = 0.5
	feedbackLookbackMinutes = 24 * 60
	feedbackInitialMargin   = 0.10
)

// NewFeedbackControl returns a controller steering toward ε = target.
func NewFeedbackControl(target float64) *FeedbackControl {
	return &FeedbackControl{TargetOutOfBid: target}
}

// Name implements Strategy.
func (f *FeedbackControl) Name() string {
	return fmt.Sprintf("Feedback(%g)", f.TargetOutOfBid)
}

// integralClamp bounds the accumulated error so the controller cannot
// wind up unboundedly during long excursions.
const integralClamp = 0.5

// Decide implements Strategy.
func (f *FeedbackControl) Decide(view MarketView, spec ServiceSpec, intervalMinutes int64) (Decision, error) {
	keys, err := FeasiblePools(view, spec)
	if err != nil {
		return Decision{}, err
	}
	if f.state == nil {
		f.state = make(map[string]*feedbackState, len(keys))
	}
	now := view.Now()
	sel := cheapestUnits{need: TargetNodes(view, spec) * market.UnitsPerNode}
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
		st := f.state[z]
		if st == nil {
			st = &feedbackState{bid: cur.Scale(1 + feedbackInitialMargin)}
			f.state[z] = st
		} else {
			hist, err := view.PriceHistory(z, now-feedbackLookbackMinutes, now)
			if err == nil && hist != nil && hist.End > hist.Start {
				e := hist.FractionAbove(st.bid) - f.TargetOutOfBid
				st.integral += e
				if st.integral > integralClamp {
					st.integral = integralClamp
				} else if st.integral < -integralClamp {
					st.integral = -integralClamp
				}
				factor := 1 + feedbackKp*e + feedbackKi*st.integral
				// The actuator saturates well before the bid could go
				// negative or explode within one interval.
				if factor < 0.5 {
					factor = 0.5
				} else if factor > 2 {
					factor = 2
				}
				st.bid = st.bid.Scale(factor)
			}
		}
		// EC2 rejects bids above 4x on-demand (§2.1); the cap also
		// bounds what an out-of-control integral term could spend.
		if maxBid := od * 4; st.bid > maxBid {
			st.bid = maxBid
		}
		if st.bid < 0 {
			st.bid = 0
		}
		if st.bid < cur {
			// Priced out: the controller refuses this market for now.
			// The bid stays put so recovery is driven by measurement.
			continue
		}
		sel.offer(pricedPool{key: z, price: st.bid, units: u})
	}
	var bids []Bid
	for _, z := range sel.picked {
		bids = append(bids, Bid{Zone: z.key, Price: z.price})
	}
	return Decision{Bids: bids}, nil
}
