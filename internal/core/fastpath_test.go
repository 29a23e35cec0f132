package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/market"
	"repro/internal/quorum"
)

// countingView counts SpotPrice calls per zone on top of a real view.
type countingView struct {
	traceView
	spotCalls map[string]int
}

func (v *countingView) SpotPrice(zone string) (market.Money, error) {
	v.spotCalls[zone]++
	return v.traceView.SpotPrice(zone)
}

// TestDecideSpotPriceOncePerZone pins the removed duplicate lookup: a
// Decide reads each zone's spot price exactly once — when the zone
// state is built — and the per-n candidate loop reuses that value.
func TestDecideSpotPriceOncePerZone(t *testing.T) {
	view := &countingView{traceView: genView(t, 42, 13), spotCalls: map[string]int{}}
	j := New()
	d, err := j.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bids) == 0 {
		t.Fatal("no bids; the counting assertion would be vacuous")
	}
	zones := market.ExperimentZones()
	if len(view.spotCalls) != len(zones) {
		t.Fatalf("SpotPrice touched %d zones, want %d", len(view.spotCalls), len(zones))
	}
	for _, z := range zones {
		if n := view.spotCalls[z]; n != 1 {
			t.Fatalf("zone %s: %d SpotPrice calls per Decide, want exactly 1", z, n)
		}
	}
}

// TestDecideParallelMatchesSequential pins that the worker-pool zone
// build changes nothing observable: the same view decided under
// GOMAXPROCS=1 (sequential path) and the default (parallel path) yields
// identical bids, candidates, and failure probabilities.
func TestDecideParallelMatchesSequential(t *testing.T) {
	view := genView(t, 2014, 13)

	// Force the pool on, even on single-proc hosts: goroutines still
	// interleave, which is what the determinism claim is about.
	prev := runtime.GOMAXPROCS(4)
	jp := traced(New())
	dp, err := jp.Decide(view, lockSpec(), 180)
	if err != nil {
		runtime.GOMAXPROCS(prev)
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(1)
	js := traced(New())
	ds, err := js.Decide(view, lockSpec(), 180)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}

	if len(dp.Bids) != len(ds.Bids) {
		t.Fatalf("parallel %d bids, sequential %d", len(dp.Bids), len(ds.Bids))
	}
	for i := range dp.Bids {
		if dp.Bids[i] != ds.Bids[i] {
			t.Fatalf("bid %d: parallel %+v, sequential %+v", i, dp.Bids[i], ds.Bids[i])
		}
	}
	cp, cs := lastCandidates(jp), lastCandidates(js)
	if len(cp) != len(cs) {
		t.Fatalf("candidate tables differ in length: %d vs %d", len(cp), len(cs))
	}
	for i := range cp {
		if cp[i] != cs[i] {
			t.Fatalf("candidate %d: parallel %+v, sequential %+v", i, cp[i], cs[i])
		}
	}
	fpp, fps := jp.LastBidFailureProbabilities(), js.LastBidFailureProbabilities()
	for z, fp := range fpp {
		if fps[z] != fp {
			t.Fatalf("zone %s: parallel FP %v, sequential %v", z, fp, fps[z])
		}
	}
}

// naiveRefineBids is the pre-evaluator implementation — linear next-level
// scan, full node-count availability DP per probe — kept as the oracle
// for the incremental descent.
func naiveRefineBids(bids []poolBid, k int, target float64) []poolBid {
	n := len(bids)
	fps := make([]float64, n)
	for i, zb := range bids {
		fps[i] = zb.pool.fpOf(zb.bid)
	}
	nextLower := func(i int) (market.Money, bool) {
		var best market.Money = -1
		for _, lv := range bids[i].pool.levels {
			if lv < bids[i].bid && lv >= bids[i].pool.cur && lv > best {
				best = lv
			}
		}
		if best < 0 {
			return 0, false
		}
		return best, true
	}
	for iter := 0; iter < 64*n; iter++ {
		bestIdx := -1
		var bestSave market.Money
		var bestBid market.Money
		var bestFP float64
		for i := range bids {
			lower, ok := nextLower(i)
			if !ok {
				continue
			}
			newFP := bids[i].pool.fpOf(lower)
			old := fps[i]
			fps[i] = newFP
			feasible := thresholdAvailability(k, fps) >= target
			fps[i] = old
			if !feasible {
				continue
			}
			if save := bids[i].bid - lower; save > bestSave {
				bestSave = save
				bestIdx = i
				bestBid = lower
				bestFP = newFP
			}
		}
		if bestIdx < 0 {
			break
		}
		bids[bestIdx].bid = bestBid
		fps[bestIdx] = bestFP
	}
	return bids
}

// TestRefineBidsMatchesNaive property-tests the evaluator-backed
// weighted descent, over base nodes (the unit threshold is k whole nodes),
// against the O(n³) node-count original on random staircase FP curves:
// same bids, same order, every trial.
func TestRefineBidsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o"}
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(len(names)-3)
		nLevels := 2 + rng.Intn(30)
		levels := make([]market.Money, nLevels)
		p := market.Money(50 + rng.Intn(100))
		for i := range levels {
			levels[i] = p
			p += market.Money(1 + rng.Intn(150))
		}
		bids := make([]poolBid, n)
		naiveBids := make([]poolBid, n)
		for zi := 0; zi < n; zi++ {
			// Non-increasing FP staircase over the levels.
			fp := make([]float64, nLevels)
			v := 0.2 + 0.6*rng.Float64()
			for li := range fp {
				fp[li] = v
				v *= rng.Float64()
			}
			lv := append([]market.Money(nil), levels...)
			pool := &poolSnapshot{
				zone: names[zi],
				fpOf: func(bid market.Money) float64 {
					best := 1.0
					for li, l := range lv {
						if bid >= l {
							best = fp[li]
						}
					}
					return best
				},
				levels: lv,
				cur:    levels[rng.Intn(nLevels/2+1)],
				units:  market.UnitsPerNode,
			}
			start := levels[nLevels/2+rng.Intn(nLevels-nLevels/2)]
			bids[zi] = poolBid{pool: pool, bid: start}
			naiveBids[zi] = bids[zi]
		}
		k := n/2 + 1
		// A target the starting configuration meets with a little slack.
		startFPs := make([]float64, n)
		for zi := range bids {
			startFPs[zi] = bids[zi].pool.fpOf(bids[zi].bid)
		}
		target := thresholdAvailability(k, startFPs) * (0.97 + 0.02*rng.Float64())

		refineBidsWeighted(bids, k*market.UnitsPerNode, target)
		want := naiveRefineBids(naiveBids, k, target)
		for i := range bids {
			if bids[i] != want[i] {
				t.Fatalf("trial %d (n=%d k=%d target=%v): bid %d = %+v, naive %+v",
					trial, n, k, target, i, bids[i], want[i])
			}
		}
	}
}

// thresholdAvailability is the k-of-n rule over per-node failure
// probabilities: the weighted DP at unit weights, which the quorum tests
// pin bit-identical to the node-count DP.
func thresholdAvailability(k int, p []float64) float64 {
	units := make([]int, len(p))
	for i := range units {
		units[i] = 1
	}
	return quorum.WeightedThresholdAvailability(k, units, p)
}
