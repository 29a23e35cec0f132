package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/market"
	"repro/internal/quorum"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// allExtraTypes is every cataloged type beyond m1.small, in catalog
// order.
func allExtraTypes() []market.InstanceType {
	return []market.InstanceType{market.M3Large, market.M1Medium, market.M3Medium, market.C3Large, market.R3Large}
}

// genPoolView builds a heterogeneous market view: every experiment zone
// carries one pool per cataloged instance type.
func genPoolView(t *testing.T, seed uint64, weeks int64) traceView {
	t.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: seed, Type: market.M1Small, Types: allExtraTypes(),
		Zones: market.ExperimentZones(),
		Start: 0, End: weeks * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	return traceView{set: set, now: weeks*week - 1}
}

func TestJupiterDecidePoolsFeasible(t *testing.T) {
	view := genPoolView(t, 42, 13)
	j := New()
	spec := lockSpec()
	d, err := j.Decide(view, spec, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bids)+len(d.OnDemand) == 0 {
		t.Fatal("empty decision over a heterogeneous view")
	}
	known := make(map[string]bool)
	for _, z := range view.Zones() {
		known[z] = true
	}
	var units []int
	var fps []float64
	total := 0
	for _, b := range d.Bids {
		if !known[b.Zone] {
			t.Fatalf("bid on unknown pool %q", b.Zone)
		}
		u, err := market.PoolCapacityUnits(b.Zone, spec.Type)
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := j.LastBidFailureProbabilities()[b.Zone]
		if !ok {
			t.Fatalf("no recorded failure probability for %q", b.Zone)
		}
		units = append(units, u)
		fps = append(fps, fp)
		total += u
	}
	// The chosen portfolio must meet the Equation 10 constraint under
	// the exact unit-weighted quorum rule.
	target := spec.TargetAvailability()
	avail := quorum.WeightedThresholdAvailability(spec.QuorumUnits(total), units, fps)
	if avail < target {
		t.Fatalf("decision availability %v below target %v", avail, target)
	}
	if total < spec.DataShards*market.UnitsPerNode {
		t.Fatalf("portfolio of %d units cannot host %d shards", total, spec.DataShards)
	}
}

// TestJupiterPoolPlanningCostNotWorse pins the base-family guarantee:
// over the same zones and models, the planner never plans a costlier
// group on a heterogeneous market than on the zone-only one, because the
// base-type-only selection itself stays in the candidate race.
func TestJupiterPoolPlanningCostNotWorse(t *testing.T) {
	const seed, weeks = 42, 13
	spec := lockSpec()

	zoneView := genView(t, seed, weeks)
	jz := New()
	dz, err := jz.Decide(zoneView, spec, 60)
	if err != nil {
		t.Fatal(err)
	}
	poolView := genPoolView(t, seed, weeks)
	jp := New()
	dp, err := jp.Decide(poolView, spec, 60)
	if err != nil {
		t.Fatal(err)
	}
	planned := func(d strategy.Decision) market.Money {
		var c market.Money
		for _, b := range d.Bids {
			c += b.Price
		}
		for _, z := range d.OnDemand {
			od, err := market.PoolOnDemandPrice(z, spec.Type)
			if err != nil {
				t.Fatal(err)
			}
			c += od
		}
		return c
	}
	zc, pc := planned(dz), planned(dp)
	if pc > zc {
		t.Fatalf("heterogeneous plan costs %v, zone-only %v", pc, zc)
	}
}

// warmDecideAllocs returns the fewest heap allocations one Decide of a
// warmed framework makes at the given GOMAXPROCS. (testing.AllocsPerRun
// runs at GOMAXPROCS 1, where buildPoolSnapshots never fanned out.)
func warmDecideAllocs(t *testing.T, procs int, j *Jupiter, view traceView, interval int64) uint64 {
	t.Helper()
	best := uint64(math.MaxUint64)
	withProcs(procs, func() {
		var before, after runtime.MemStats
		for i := 0; i < 6; i++ {
			runtime.ReadMemStats(&before)
			if _, err := j.Decide(view, lockSpec(), interval); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
	})
	return best
}

// requireWarmDecideBudget holds a warmed Decide to an allocation budget,
// and to the same count with one processor and with more processors than
// pools: the forecast fan-out costs a channel, a wait group and a closure
// per worker, so equal counts are what pins that a warm Decide starts no
// goroutine.
func requireWarmDecideBudget(t *testing.T, view traceView, interval int64, budget uint64) {
	t.Helper()
	j := New()
	if _, err := j.Decide(view, lockSpec(), interval); err != nil { // warm models, caches and memos
		t.Fatal(err)
	}
	seq := warmDecideAllocs(t, 1, j, view, interval)
	par := warmDecideAllocs(t, 128, j, view, interval)
	t.Logf("a warmed Decide over %d pools allocates %d times at GOMAXPROCS 1, %d at 128", len(view.Zones()), seq, par)
	if par != seq {
		t.Fatalf("a warmed Decide allocates %d times at GOMAXPROCS 128, %d at 1: it fanned out", par, seq)
	}
	if seq > budget {
		t.Fatalf("a warmed Decide allocates %d times, budget %d", seq, budget)
	}
}

// TestDecideSingleTypeAllocBudget pins the single-type market's
// allocation budget through the one planner: a warmed Decide over 17
// zones allocates 116 times (the forecasts and the selections kept; the
// per-size candidate lists live in poolScratch), and the budget is that
// plus 15 %.
func TestDecideSingleTypeAllocBudget(t *testing.T) {
	requireWarmDecideBudget(t, genView(t, 42, 13), 60, 133)
}

// TestDecidePoolsAllocBudget pins the planner's allocation budget on the
// 68-pool market. A warmed Decide — models trained, every rebid decided
// from the bisection prefix the memo holds — builds its candidate groups
// in scratch lists and checks them in one scratch row; what still
// allocates is the forecasts, the rebid outputs and the selections kept:
// 506 allocations while every size was priced (≈ 220 groups), 435 since
// the enumeration stops at the first size that cannot win, and the
// budget is the former plus 15 %. A list per size would add thousands,
// as would a row per bisection probe.
func TestDecidePoolsAllocBudget(t *testing.T) {
	requireWarmDecideBudget(t, traceView{set: benchPoolSet(t), now: 6 * week}, 180, 582)
}

// TestDecidePoolsUsesTypedPools: over a heterogeneous view the planner
// enumerates candidates in base-node equivalents and at least one typed
// pool appears among the candidates it could select from.
func TestDecidePoolsUsesTypedPools(t *testing.T) {
	view := genPoolView(t, 42, 13)
	j := traced(New())
	if _, err := j.Decide(view, lockSpec(), 60); err != nil {
		t.Fatal(err)
	}
	if len(lastCandidates(j)) == 0 {
		t.Fatal("the planner recorded no candidate group sizes")
	}
	typed := 0
	for _, z := range view.Zones() {
		if strings.IndexByte(z, '/') >= 0 {
			typed++
		}
	}
	if typed == 0 {
		t.Fatal("pool view exposes no typed pools; test is vacuous")
	}
}

// shuffledView lists a view's pools in another order.
type shuffledView struct {
	traceView
	zones []string
}

func (v shuffledView) Zones() []string { return v.zones }

// TestPlannerSortsAreTotalOrders: the planner sorts with the unstable
// slices.SortFunc, which is safe only because every comparator ends in a
// unique pool-key tiebreak. If one did not, the order of tied pools —
// and with it the greedy fills, the DP fold order and the decision —
// would follow the order the view lists its pools in. On a zone-only and
// on a typed market, at every degradation stage (the on-demand ranking
// and the hardening sort only run under faults), it must decide the same
// whatever that order.
func TestPlannerSortsAreTotalOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	zones := market.ExperimentZones()
	for _, base := range []traceView{genView(t, 42, 13), {set: benchPoolSet(t), now: 6 * week}} {
		for _, faulted := range [][]string{nil, zones[:1], zones[:13]} {
			decide := func(view strategy.MarketView) (strategy.Decision, []candidate) {
				j := traced(New())
				for _, z := range faulted {
					j.OnFault(fault(z, base.now-10))
				}
				d, err := j.Decide(view, lockSpec(), 180)
				if err != nil {
					t.Fatal(err)
				}
				return d, lastCandidates(j)
			}
			want, wantCands := decide(base)
			for shuffle := 0; shuffle < 4; shuffle++ {
				pools := slices.Clone(base.Zones())
				rng.Shuffle(len(pools), func(a, b int) { pools[a], pools[b] = pools[b], pools[a] })
				got, gotCands := decide(shuffledView{traceView: base, zones: pools})
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotCands, wantCands) {
					t.Fatalf("%d pools, %d faulted zones, shuffle %d: decision %+v / %+v, in listed order %+v / %+v",
						len(pools), len(faulted), shuffle, got, gotCands, want, wantCands)
				}
			}
		}
	}
	// Equal bids across pools are rare on a generated market; pin the
	// by-bid comparator's tiebreak directly.
	bids := make([]poolBid, 40)
	for i := range bids {
		bids[i] = poolBid{pool: &poolSnapshot{zone: fmt.Sprintf("pool-%02d", i)}, bid: market.Money(100 * (1 + i%3))}
	}
	want := slices.Clone(bids)
	sort.SliceStable(want, func(a, b int) bool { return want[a].bid < want[b].bid })
	for shuffle := 0; shuffle < 4; shuffle++ {
		rng.Shuffle(len(bids), func(a, b int) { bids[a], bids[b] = bids[b], bids[a] })
		if slices.SortFunc(bids, cheapestBidFirst); !slices.Equal(bids, want) {
			t.Fatalf("cheapestBidFirst, shuffle %d: %v, want %v", shuffle, bids, want)
		}
	}
}

// TestFillBoundsEveryPricedGroup is the exactness argument of the
// enumeration's cut as a property. On seeded zone-only and 68-pool
// markets, for both services, healthy, degraded and critical, every group
// the enumeration prices at size W — as first bid and again after a
// rebid — costs at least cheapestFill at W over the Decide's price list,
// and that bound never decreases in W.
func TestFillBoundsEveryPricedGroup(t *testing.T) {
	const (
		trainWeeks = 3
		interval   = 180
		decides    = 8
	)
	zones := market.ExperimentZones()
	faultLoads := []struct {
		zones []string
		stage degradeStage
	}{{nil, stageHealthy}, {zones[:1], stageDegraded}, {zones[:13], stageCritical}}
	specs := []strategy.ServiceSpec{lockSpec(), {Type: market.M3Large, BaseNodes: 5, DataShards: 3}}
	var priced, rebids int
	for _, types := range [][]market.InstanceType{nil, {market.M1Medium, market.C3Large, market.R3Large}} {
		for m := 0; m < 2; m++ {
			seed := 2014 + uint64(m)*0x9E3779B97F4A7C15
			for _, spec := range specs {
				set, err := trace.Generate(trace.GenConfig{
					Seed: seed, Type: spec.Type, Types: types, Zones: zones,
					Start: 0, End: trainWeeks*week + decides*interval,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, load := range faultLoads {
					name := fmt.Sprintf("%d pools, seed %d, %s, stage %v", len(set.ByZone), seed, spec.Type, load.stage)
					j := New()
					for _, z := range load.zones {
						j.OnFault(fault(z, trainWeeks*week-1))
					}
					j.priced = func(W int, cost market.Money, rebid bool) {
						if lb := cheapestFill(j.ws.floor, W*market.UnitsPerNode); cost < lb {
							t.Fatalf("%s: a group of %d base nodes (rebid %v) costs %v, under the bound %v", name, W, rebid, cost, lb)
						}
						priced++
						if rebid {
							rebids++
						}
					}
					for d := int64(0); d < decides; d++ {
						view := traceView{set: set, now: trainWeeks*week + d*interval}
						if _, err := j.Decide(view, spec, interval); err != nil {
							t.Fatal(err)
						}
						if d == 0 && j.lastStage != load.stage {
							t.Fatalf("%s: first Decide at stage %v", name, j.lastStage)
						}
						var prev market.Money
						for W := 1; W <= len(set.ByZone)+1; W++ {
							lb := cheapestFill(j.ws.floor, W*market.UnitsPerNode)
							if lb < prev {
								t.Fatalf("%s decision %d: bound %v at n=%d, %v at n=%d", name, d, lb, W, prev, W-1)
							}
							prev = lb
						}
					}
				}
			}
		}
	}
	t.Logf("%d groups priced, %d of them after a rebid", priced, rebids)
	if rebids == 0 {
		t.Fatal("no group was priced after a rebid; the pin is vacuous")
	}
}
