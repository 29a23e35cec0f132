// Decision-provenance emission helpers for the planner (pools.go). Every
// call site is guarded on a non-nil *provenance.DecisionTrace, so
// unobserved runs never reach this file.
package core

import (
	"repro/internal/market"
	"repro/internal/provenance"
	"repro/internal/quorum"
	"repro/internal/strategy"
)

// emitStage records the degradation stage a decision ran under,
// marking transitions with the stage it moved from.
func emitStage(dt *provenance.DecisionTrace, prev, cur degradeStage) {
	s := provenance.Span{Kind: provenance.SpanStage, Outcome: cur.String()}
	if cur != prev {
		s.Detail = "from " + prev.String()
	}
	dt.Emit(s)
}

// fallbackTraced runs the service on on-demand instances when no spot
// configuration meets the availability constraint (§4.2's preference
// for on-demand over over-bidding), closing the trace with a "chosen"
// span naming why.
func (j *Jupiter) fallbackTraced(view strategy.MarketView, spec strategy.ServiceSpec, dt *provenance.DecisionTrace, reason string) (strategy.Decision, error) {
	if dt != nil {
		dt.Emit(provenance.Span{Kind: provenance.SpanChosen, Outcome: "fallback", Detail: reason})
	}
	return strategy.OnDemand{}.Decide(view, spec, 0)
}

func bidSum(bids []poolBid) market.Money {
	var sum market.Money
	for _, zb := range bids {
		sum += zb.bid
	}
	return sum
}

// emitChosenPools records the chosen group: one bid span per member —
// an on-demand member carries its fixed price as the bid — and the
// closing chosen span with the group's planned cost (the figure its
// candidate span carried, unless hardening or the descent moved it
// since), its exact unit-quorum availability and the Eq. 10 margin over
// the target.
func (j *Jupiter) emitChosenPools(dt *provenance.DecisionTrace, spec strategy.ServiceSpec, spot []poolBid, od []odPoolCand, target float64) {
	units := make([]int, 0, len(spot)+len(od))
	fps := make([]float64, 0, len(spot)+len(od))
	tot := 0
	var cost market.Money
	for _, pb := range spot {
		fp := pb.pool.fpOf(pb.bid)
		units = append(units, pb.pool.units)
		tot += pb.pool.units
		fps = append(fps, fp)
		cost += pb.bid
		dt.Emit(provenance.Span{Kind: provenance.SpanBid, Pool: pb.pool.zone, BidMicroUSD: int64(pb.bid), CurMicroUSD: int64(pb.pool.cur), FP: fp})
	}
	for _, oc := range od {
		units = append(units, oc.units)
		tot += oc.units
		fps = append(fps, fp0)
		cost += oc.price
		dt.Emit(provenance.Span{Kind: provenance.SpanBid, Pool: oc.key, Outcome: "on-demand", BidMicroUSD: int64(oc.price), FP: fp0})
	}
	avail := quorum.WeightedThresholdAvailability(spec.QuorumUnits(tot), units, fps)
	dt.Emit(provenance.Span{
		Kind: provenance.SpanChosen, Outcome: "ok", Nodes: len(spot) + len(od),
		CostMicroUSD: int64(cost), Availability: avail, Target: target, Margin: avail - target,
	})
}
