package core

// Reference (pre-memo) implementation of the rebid's bisection:
// fitUniformFP exactly as it was when it ran all 100 iterations on a
// freshly allocated DP row and remembered nothing. The tests below pin
// the planner's fitUniformFP — early exit, scratch row, memo hit and
// memo miss — and the decisions built on it bit-identical to it.

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/market"
	"repro/internal/quorum"
	"repro/internal/trace"
)

func refFitUniformFP(t int, units []int, target float64) (float64, bool) {
	fps := make([]float64, len(units))
	availAt := func(p float64) float64 {
		for i := range fps {
			fps[i] = p
		}
		return quorum.WeightedThresholdAvailability(t, units, fps)
	}
	if availAt(0) < target {
		return 0, false
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if availAt(mid) >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

func sameFit(fp float64, ok bool, wantFP float64, wantOK bool) bool {
	return ok == wantOK && math.Float64bits(fp) == math.Float64bits(wantFP)
}

// TestFitUniformFPMatchesReference: 1500 seeded (t, units, target)
// instances on one Jupiter, each asked twice — a memo miss, then a hit.
// Thresholds fall on both sides of [1, total]; targets include the
// everywhere-feasible (<= 0, where the bisection climbs to exactly 1),
// the nowhere-feasible (> 1) and NaN.
func TestFitUniformFPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	j := New()
	for trial := 0; trial < 1500; trial++ {
		n := rng.Intn(16)
		maxUnit := []int{1, 4, 70}[rng.Intn(3)]
		units := make([]int, n)
		total := 0
		for i := range units {
			units[i] = 1 + rng.Intn(maxUnit)
			total += units[i]
		}
		thr := rng.Intn(total+6) - 2 // -2 .. total+3
		var target float64
		switch rng.Intn(8) {
		case 0:
			target = []float64{-1, 0, 1, 1.5, math.NaN()}[rng.Intn(5)]
		case 1:
			target = rng.Float64()
		default:
			target = 1 - math.Pow(10, -1-6*rng.Float64())
		}
		wantFP, wantOK := refFitUniformFP(thr, units, target)
		for _, pass := range []string{"miss", "hit"} {
			if fp, ok := j.fitUniformFP(thr, units, target); !sameFit(fp, ok, wantFP, wantOK) {
				t.Fatalf("trial %d (memo %s): got (%x, %v), reference (%x, %v) (t=%d units=%v target=%v)",
					trial, pass, math.Float64bits(fp), ok, math.Float64bits(wantFP), wantOK, thr, units, target)
			}
		}
	}
}

// TestMemosSurviveReset: both pure memos drop everything at memoCap
// entries and answer the same afterwards.
func TestMemosSurviveReset(t *testing.T) {
	j := New()
	units := []int{16, 24, 34, 68, 16}
	target := lockSpec().TargetAvailability()
	fitFP, fitOK := j.fitUniformFP(80, units, target)
	invFP, invOK := j.invertFP(7, 4, target)
	for i := 0; len(j.fitCache) < memoCap; i++ {
		j.fitCache[strconv.Itoa(i)] = fpVal{}
	}
	for i := 0; len(j.fpCache) < memoCap; i++ {
		j.fpCache[fpKey{n: -1 - i}] = fpVal{}
	}
	wantFP, wantOK := refFitUniformFP(81, units, target)
	if fp, ok := j.fitUniformFP(81, units, target); !sameFit(fp, ok, wantFP, wantOK) || len(j.fitCache) != 1 {
		t.Fatalf("fit at the cap: (%v, %v) with %d entries, reference (%v, %v) with 1", fp, ok, len(j.fitCache), wantFP, wantOK)
	}
	if j.invertFP(9, 5, target); len(j.fpCache) != 1 {
		t.Fatalf("fpCache holds %d entries after an insert at the cap, want 1", len(j.fpCache))
	}
	if fp, ok := j.fitUniformFP(80, units, target); !sameFit(fp, ok, fitFP, fitOK) {
		t.Fatalf("fit after reset (%v, %v), before (%v, %v)", fp, ok, fitFP, fitOK)
	}
	if fp, ok := j.invertFP(7, 4, target); !sameFit(fp, ok, invFP, invOK) {
		t.Fatalf("invertFP after reset (%v, %v), before (%v, %v)", fp, ok, invFP, invOK)
	}
}

// benchPoolSet is the benchmark's 68-pool market (bench/workloads.go,
// jupiter_pools68) at seed 2014: m1.small and three sibling types in 17
// zones, 6 training weeks and 2 days to decide in.
func benchPoolSet(tb testing.TB) *trace.Set {
	tb.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: 2014, Type: market.M1Small,
		Types: []market.InstanceType{market.M1Medium, market.C3Large, market.R3Large},
		Zones: market.ExperimentZones(),
		Start: 0, End: 6*week + 2*24*60,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return set
}

// TestDecidePoolsMatchesReferenceFit: nine consecutive 3 h Decides on
// the 68-pool market — the span over which the memo goes from cold to
// > 96 % hits — give the same Decisions and candidate tables as a
// Jupiter whose rebids run the reference bisection.
func TestDecidePoolsMatchesReferenceFit(t *testing.T) {
	set := benchPoolSet(t)
	fast, ref := New(), New()
	ref.fit = refFitUniformFP
	spec := lockSpec()
	for d := int64(0); d < 9; d++ {
		view := traceView{set: set, now: 6*week + d*180}
		got, err := fast.Decide(view, spec, 180)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Decide(view, spec, 180)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decision %d: %+v, reference %+v", d, got, want)
		}
		if !reflect.DeepEqual(fast.LastCandidates(), ref.LastCandidates()) {
			t.Fatalf("decision %d: candidates %+v, reference %+v", d, fast.LastCandidates(), ref.LastCandidates())
		}
	}
	if len(fast.fitCache) == 0 {
		t.Fatal("no rebid ran; the pin is vacuous")
	}
}
