package core

import (
	"testing"

	"repro/internal/market"
	"repro/internal/quorum"
)

func TestRefineBidsLowersCostWithinTarget(t *testing.T) {
	// Three zones, equal starting bids; each zone's FP curve steps at
	// its levels. The descent should lower some bids while the 2-of-3
	// availability stays above target.
	levels := []market.Money{100, 200, 300}
	mkZone := func(zone string, fpAt map[market.Money]float64) *poolSnapshot {
		return &poolSnapshot{
			zone: zone,
			fpOf: func(bid market.Money) float64 {
				best := 1.0
				for lv, fp := range fpAt {
					if bid >= lv && fp < best {
						best = fp
					}
				}
				return best
			},
			levels: levels,
			cur:    100,
			units:  market.UnitsPerNode,
		}
	}
	out := []poolBid{
		{pool: mkZone("a", map[market.Money]float64{100: 0.20, 200: 0.02, 300: 0.001}), bid: 300},
		{pool: mkZone("b", map[market.Money]float64{100: 0.05, 200: 0.01, 300: 0.001}), bid: 300},
		{pool: mkZone("c", map[market.Money]float64{100: 0.02, 200: 0.01, 300: 0.001}), bid: 300},
	}
	target := 0.999
	refineBidsWeighted(out, 2*market.UnitsPerNode, target)

	var totalBefore, totalAfter market.Money = 900, 0
	fps := make([]float64, len(out))
	for i, zb := range out {
		totalAfter += zb.bid
		fps[i] = zb.pool.fpOf(zb.bid)
		if zb.bid < 100 {
			t.Fatalf("bid %v below current price", zb.bid)
		}
	}
	if totalAfter >= totalBefore {
		t.Fatalf("refinement saved nothing: %v -> %v", totalBefore, totalAfter)
	}
	if a := quorum.ThresholdAvailability(2, fps); a < target {
		t.Fatalf("refined availability %v below target %v", a, target)
	}
}

func TestRefineBidsRespectsTarget(t *testing.T) {
	// With a target achievable only at the top level, nothing lowers.
	z := &poolSnapshot{
		fpOf: func(bid market.Money) float64 {
			if bid >= 300 {
				return 0.001
			}
			return 0.4
		},
		levels: []market.Money{100, 200, 300},
		cur:    100,
		units:  market.UnitsPerNode,
	}
	out := []poolBid{{pool: z, bid: 300}, {pool: z, bid: 300}, {pool: z, bid: 300}}
	refineBidsWeighted(out, 2*market.UnitsPerNode, 0.9999)
	for _, zb := range out {
		if zb.bid != 300 {
			t.Fatalf("bid lowered to %v despite tight target", zb.bid)
		}
	}
}

func TestJupiterRefineEndToEnd(t *testing.T) {
	view := genView(t, 42, 13)
	plain := New()
	dPlain, err := plain.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	refined := New()
	refined.Refine = true
	if refined.Name() != "Jupiter+refine" {
		t.Fatalf("Name = %q", refined.Name())
	}
	dRef, err := refined.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(bids []struct {
		Zone  string
		Price market.Money
	}) market.Money {
		var s market.Money
		for _, b := range bids {
			s += b.Price
		}
		return s
	}
	_ = sum
	var sp, sr market.Money
	for _, b := range dPlain.Bids {
		sp += b.Price
	}
	for _, b := range dRef.Bids {
		sr += b.Price
	}
	if sr > sp {
		t.Fatalf("refined bid sum %v above plain %v", sr, sp)
	}
	// The refined decision must still satisfy the availability target
	// under its own FP estimates.
	fps := refined.LastBidFailureProbabilities()
	vec := make([]float64, 0, len(fps))
	for _, fp := range fps {
		vec = append(vec, fp)
	}
	k := lockSpec().QuorumSize(len(vec))
	if a := quorum.ThresholdAvailability(k, vec); a < lockSpec().TargetAvailability() {
		t.Fatalf("refined decision availability %v below target", a)
	}
}
