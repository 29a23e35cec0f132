package core

import (
	"runtime"
	"testing"

	"repro/internal/market"
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
