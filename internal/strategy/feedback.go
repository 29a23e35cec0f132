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
	// Kp and Ki are the proportional and integral gains.
	Kp, Ki float64
	// LookbackMinutes is the measurement window (default one day).
	LookbackMinutes int64
	// InitialMargin seeds a pool's first bid at spot·(1+InitialMargin).
	InitialMargin float64

	state map[string]*feedbackState
}

// feedbackState is one pool's controller state.
type feedbackState struct {
	bid      market.Money
	integral float64
}

// NewFeedbackControl returns a controller with the defaults used by the
// tournament roster: ε = 3%, Kp = 2, Ki = 0.5, one-day lookback, 10%
// initial margin.
func NewFeedbackControl(target float64) *FeedbackControl {
	return &FeedbackControl{
		TargetOutOfBid:  target,
		Kp:              2.0,
		Ki:              0.5,
		LookbackMinutes: 24 * 60,
		InitialMargin:   0.10,
	}
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
	var candidates []pricedPool
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
			st = &feedbackState{bid: cur.Scale(1 + f.InitialMargin)}
			f.state[z] = st
		} else {
			hist, err := view.PriceHistory(z, now-f.LookbackMinutes, now)
			if err == nil && hist != nil && hist.End > hist.Start {
				e := hist.FractionAbove(st.bid) - f.TargetOutOfBid
				st.integral += e
				if st.integral > integralClamp {
					st.integral = integralClamp
				} else if st.integral < -integralClamp {
					st.integral = -integralClamp
				}
				factor := 1 + f.Kp*e + f.Ki*st.integral
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
		candidates = append(candidates, pricedPool{key: z, price: st.bid, units: u})
	}
	sortPerUnit(candidates)
	var bids []Bid
	for _, z := range fillUnits(candidates, TargetNodes(view, spec)*market.UnitsPerNode) {
		bids = append(bids, Bid{Zone: z.key, Price: z.price})
	}
	return Decision{Bids: bids}, nil
}

func init() {
	Register(Registration{
		Name:        "feedback",
		Description: "PI-controller bidding toward a target out-of-bid fraction (arXiv 1708.01391)",
		Usage:       "feedback | feedback(epsilon)",
		Example:     "feedback",
		Build: func(args []string) (Builder, error) {
			if err := WantArgs("feedback(epsilon)", args, 0, 1); err != nil {
				return nil, err
			}
			target := 0.03
			if len(args) == 1 {
				t, err := ArgFloat("epsilon", args[0])
				if err != nil {
					return nil, err
				}
				if t <= 0 || t >= 1 {
					return nil, fmt.Errorf("argument epsilon: %g outside (0, 1)", t)
				}
				target = t
			}
			return func() Strategy { return NewFeedbackControl(target) }, nil
		},
	})
}
