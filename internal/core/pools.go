// Capacity-weighted pool bidding: the Fig. 3 algorithm generalized to
// heterogeneous (zone × instance type) pools. A pool of capacity
// weight w plays the role of w base nodes — Equation 11's observation
// that a node of weight w counts as w survivors — so group sizes are
// enumerated in base-node equivalents W, candidate pools are ranked by
// bid per capacity unit, and feasibility is checked exactly with the
// unit-sum quorum rule (quorum.WeightedThresholdAvailability) instead
// of being implied by the equalized per-node target alone.
//
// Decide routes here only when the market view exposes typed pools;
// single-type views take the zone path in jupiter.go, byte-identical
// to the pre-pool framework.
package core

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/market"
	"repro/internal/provenance"
	"repro/internal/quorum"
	"repro/internal/strategy"
)

// weightedPool couples a pool snapshot with its integer capacity units
// (market.UnitsPerNode for a base-type pool).
type weightedPool struct {
	*poolSnapshot
	units int
}

// poolScratch is what the planner's exact-quorum checks run in: the DP
// row, a group's unit and probability vectors, and the memo key under
// construction. One per Jupiter, reused by every check.
type poolScratch struct {
	dp    quorum.WeightedDP
	units []int
	fps   []float64
	key   []byte
}

// odPoolCand is an on-demand substitution candidate: a pool whose
// on-demand instance can pad a degraded group.
type odPoolCand struct {
	key   string
	price market.Money
	units int
}

// perUnitCmp orders (price, units) pairs by price per capacity unit
// without division: price_a/units_a vs price_b/units_b cross-multiplied
// to stay in exact integers.
func perUnitCmp(pa market.Money, ua int, pb market.Money, ub int) int {
	a := int64(pa) * int64(ub)
	b := int64(pb) * int64(ua)
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// decidePools is the capacity-weighted counterpart of the zone path in
// Decide. pools has already passed the spec's minimum-shape filter.
func (j *Jupiter) decidePools(view strategy.MarketView, spec strategy.ServiceSpec, pools []string, intervalMinutes int64) (strategy.Decision, error) {
	target := spec.TargetAvailability()
	now := view.Now()

	stage := StageHealthy
	if j.health != nil && j.health.faults > 0 {
		stage = j.health.stage(now)
	}
	prevStage := j.lastStage
	j.lastStage = stage

	dt := j.prov.Begin(now)
	if dt != nil {
		emitStage(dt, prevStage, stage)
	}

	snaps, err := j.buildPoolSnapshots(view, spec, pools, now, intervalMinutes, dt)
	if err != nil {
		return strategy.Decision{}, err
	}
	states := make([]weightedPool, 0, len(snaps))
	totalUnits := 0
	for _, st := range snaps {
		u, uerr := market.PoolCapacityUnits(st.zone, spec.Type)
		if uerr != nil {
			continue // pool key outside the catalog; unusable
		}
		states = append(states, weightedPool{poolSnapshot: st, units: u})
		totalUnits += u
	}
	if len(states) == 0 {
		return j.fallbackTraced(view, spec, dt, "no-usable-pools")
	}
	byKey := make(map[string]*poolSnapshot, len(states))
	for _, st := range states {
		byKey[st.zone] = st.poolSnapshot
	}

	// W enumerates target capacity in base-node equivalents, capped by
	// what the candidate pools can supply.
	maxW := j.MaxNodes
	if maxW <= 0 || maxW > len(pools) {
		maxW = len(pools)
	}
	if c := totalUnits / market.UnitsPerNode; maxW > c {
		maxW = c
	}
	minW := spec.DataShards
	if minW < 1 {
		minW = 1
	}
	// A workload load target raises the floor on the weighted path too,
	// in base-node equivalents (see the zone path in Decide).
	if lt, ok := view.(strategy.LoadTargeter); ok {
		if t, ok := lt.TargetNodes(); ok {
			if t > maxW {
				t = maxW
			}
			if t > minW {
				minW = t
				if dt != nil {
					dt.Emit(provenance.Span{Kind: provenance.SpanResize, Nodes: minW})
				}
			}
		}
	}

	// Under degradation, groups short of adequate spot capacity are
	// padded with on-demand instances from the cheapest-per-unit
	// non-quarantined compatible pools (the pool generalization of the
	// zone path's OD padding; the min-shape filter already ran).
	var odPool []odPoolCand
	if stage != StageHealthy {
		for _, z := range pools {
			if j.health.quarantinedKey(z, now) {
				continue
			}
			od, perr := market.PoolOnDemandPrice(z, spec.Type)
			if perr != nil {
				continue
			}
			u, uerr := market.PoolCapacityUnits(z, spec.Type)
			if uerr != nil {
				continue
			}
			odPool = append(odPool, odPoolCand{key: z, price: od, units: u})
		}
		slices.SortFunc(odPool, func(a, b odPoolCand) int {
			if c := perUnitCmp(a.price, a.units, b.price, b.units); c != 0 {
				return c
			}
			return strings.Compare(a.key, b.key)
		})
	}

	// evaluate prices a candidate group and gates it on the exact
	// weighted quorum availability. On-demand members fail at FP0. It
	// returns both the planned cost (the sum of bids — the group's
	// worst-case spend, the figure the Fig. 3 enumeration minimizes)
	// and the expected cost (the sum of current prices — what the group
	// bills if the market holds still).
	evaluate := func(spot []poolBid, spotUnits []int, od []odPoolCand) (market.Money, market.Money, bool) {
		tot := 0
		units, fps := j.ws.units[:0], j.ws.fps[:0]
		var cost, curCost market.Money
		for i, pb := range spot {
			units = append(units, spotUnits[i])
			tot += spotUnits[i]
			st := byKey[pb.zone]
			fps = append(fps, st.fpOf(pb.bid))
			cost += pb.bid
			curCost += st.cur
		}
		for _, oc := range od {
			units = append(units, oc.units)
			tot += oc.units
			fps = append(fps, j.FP0)
			cost += oc.price
			curCost += oc.price
		}
		j.ws.units, j.ws.fps = units, fps
		t := spec.QuorumUnits(tot)
		if t > tot {
			return 0, 0, false // too little capacity to ever form a quorum
		}
		if j.ws.dp.Availability(t, units, fps) < target {
			return 0, 0, false
		}
		return cost, curCost, true
	}

	// rebid repairs a group that fails the exact check at the equalized
	// per-node target. Equation 10's inversion assumes W independent
	// base nodes; a group of fewer, heavier pools has fewer failure
	// domains, so the equalized probability can be too loose for it.
	// The repair bisects the largest uniform per-member failure
	// probability fp at which THIS group's unit quorum meets the target,
	// then re-bids every spot member at that tighter probability.
	//
	// It bisects only as far as the bids can tell apart. All it does with
	// fp is compare it with FP0 and hand it to each member's minBid, a
	// step function of a few levels per pool that is monotone
	// non-increasing in its target; so with fp known to lie in [lo, up],
	// up < FP0 already fails the group, and lo >= FP0 with a member
	// answering the same at lo and at up already is that member's answer
	// at fp. Members are walked in order, as the converged rebid would;
	// the first one the interval cannot yet decide buys one more probe.
	rebid := func(spot []poolBid, spotUnits []int, od []odPoolCand) ([]poolBid, bool) {
		tot := 0
		units := j.ws.units[:0]
		for _, u := range spotUnits {
			units = append(units, u)
			tot += u
		}
		for _, oc := range od {
			units = append(units, oc.units)
			tot += oc.units
		}
		j.ws.units = units
		t := spec.QuorumUnits(tot)
		if t > tot {
			return nil, false
		}
		fit := j.fitUniformFP(t, units, target)
		if !fit.ok {
			return nil, false
		}
		var out []poolBid
		// price walks the members with fp somewhere in [lo, up]: decided
		// reports whether every answer it needed was the same at both ends.
		price := func(lo, up float64) (ok, decided bool) {
			if out == nil {
				out = make([]poolBid, len(spot))
			}
			for i, pb := range spot {
				st := byKey[pb.zone]
				bid, ok := st.minBid(lo)
				if lo != up {
					if b, k := st.minBid(up); b != bid || k != ok {
						return false, false
					}
				}
				if !ok || bid < st.cur {
					return false, true
				}
				out[i] = poolBid{zone: pb.zone, bid: bid}
			}
			return true, true
		}
		for {
			lo, up := fit.bounds()
			if up < j.FP0 {
				return nil, false
			}
			if lo >= j.FP0 {
				if ok, decided := price(lo, up); decided {
					return out, ok
				}
			}
			j.fitStep(fit, t, units, target)
		}
	}

	// poolSelection is one fully-priced candidate group.
	type poolSelection struct {
		found     bool
		cost, cur market.Money
		spot      []poolBid
		spotUnits []int
		od        []odPoolCand
	}
	// bestBase tracks the base-weight family — the selection the
	// zone-only planner would make — and bestHet the heterogeneous
	// families, both minimized by planned cost.
	var bestBase, bestHet poolSelection

	j.lastDecision = j.lastDecision[:0]

	for W := minW; W <= maxW; W++ {
		cand := CandidateCost{Nodes: W}
		fpTarget, ok := j.invertFP(W, spec.QuorumSize(W), target)
		if !ok || fpTarget < j.FP0 {
			if dt != nil {
				dt.Emit(provenance.Span{Kind: provenance.SpanCandidate, Nodes: W, Outcome: "infeasible-target"})
			}
			j.lastDecision = append(j.lastDecision, cand)
			continue
		}
		cand.FPTarget = fpTarget

		// Per-pool minimal bids at the equalized per-node target.
		// Constraint (9): the bid must clear the pool's current price.
		var cands []poolBid
		var candUnits []int
		for _, st := range states {
			bid, ok := st.minBid(fpTarget)
			if !ok || bid < st.cur {
				continue
			}
			cands = append(cands, poolBid{zone: st.zone, bid: bid})
			candUnits = append(candUnits, st.units)
		}
		needUnits := W * market.UnitsPerNode

		// padOD tops a short spot group up with on-demand pools (only
		// available under degradation) and reports whether the target
		// capacity was reached.
		padOD := func(spot []poolBid, got int) ([]odPoolCand, bool) {
			var odPick []odPoolCand
			if got < needUnits && len(odPool) > 0 {
				taken := make(map[string]bool, len(spot))
				for _, pb := range spot {
					taken[pb.zone] = true
				}
				for _, oc := range odPool {
					if got >= needUnits {
						break
					}
					if taken[oc.key] {
						continue
					}
					odPick = append(odPick, oc)
					got += oc.units
				}
			}
			return odPick, got >= needUnits
		}

		// Greedy fill from an ordering of candidate indices.
		buildSel := func(order []int) ([]poolBid, []int, []odPoolCand, bool) {
			var spot []poolBid
			var su []int
			got := 0
			for _, i := range order {
				if got >= needUnits {
					break
				}
				spot = append(spot, cands[i])
				su = append(su, candUnits[i])
				got += candUnits[i]
			}
			odPick, ok := padOD(spot, got)
			if !ok {
				return nil, nil, nil, false
			}
			return spot, su, odPick, true
		}

		// Fit-first fill: walk the ordering but only take pools that fit
		// inside the remaining capacity gap, so a cheap-per-unit heavy
		// pool taken early doesn't force paying for a large overshoot.
		// When nothing fits the residual gap, it is closed with the
		// cheapest absolute bid still unused.
		buildFit := func(order []int) ([]poolBid, []int, []odPoolCand, bool) {
			used := make([]bool, len(cands))
			var spot []poolBid
			var su []int
			got := 0
			for got < needUnits {
				picked := -1
				for _, i := range order {
					if used[i] || candUnits[i] > needUnits-got {
						continue
					}
					picked = i
					break
				}
				if picked < 0 {
					for _, i := range order {
						if used[i] {
							continue
						}
						if picked < 0 || cands[i].bid < cands[picked].bid ||
							(cands[i].bid == cands[picked].bid && cands[i].zone < cands[picked].zone) {
							picked = i
						}
					}
					if picked < 0 {
						break
					}
				}
				used[picked] = true
				spot = append(spot, cands[picked])
				su = append(su, candUnits[picked])
				got += candUnits[picked]
			}
			odPick, ok := padOD(spot, got)
			if !ok {
				return nil, nil, nil, false
			}
			return spot, su, odPick, true
		}

		// Three candidate families race per W: (a) cheapest bid per
		// capacity unit over every pool — the heterogeneous portfolio;
		// (b) cheapest base-weight pools only — the selection the
		// homogeneous zone path would make; (c) the fit-first variant of
		// (a), which avoids paying for overshoot. Keeping (b) in the
		// race means the planned cost never exceeds the zone-only
		// planner's over the same models.
		perUnit := make([]int, len(cands))
		for i := range cands {
			perUnit[i] = i
		}
		slices.SortFunc(perUnit, func(ia, ib int) int {
			if c := perUnitCmp(cands[ia].bid, candUnits[ia], cands[ib].bid, candUnits[ib]); c != 0 {
				return c
			}
			return strings.Compare(cands[ia].zone, cands[ib].zone)
		})
		var baseOnly []int
		for i := range cands {
			if candUnits[i] == market.UnitsPerNode {
				baseOnly = append(baseOnly, i)
			}
		}
		slices.SortFunc(baseOnly, func(ia, ib int) int { return cheapestBidFirst(cands[ia], cands[ib]) })

		for fi, build := range []func() ([]poolBid, []int, []odPoolCand, bool){
			func() ([]poolBid, []int, []odPoolCand, bool) { return buildSel(baseOnly) },
			func() ([]poolBid, []int, []odPoolCand, bool) { return buildSel(perUnit) },
			func() ([]poolBid, []int, []odPoolCand, bool) { return buildFit(perUnit) },
		} {
			spot, su, odPick, ok := build()
			if !ok {
				continue
			}
			cost, curCost, feasible := evaluate(spot, su, odPick)
			if !feasible {
				if spot, ok = rebid(spot, su, odPick); !ok {
					continue
				}
				if cost, curCost, feasible = evaluate(spot, su, odPick); !feasible {
					continue
				}
			}
			if !cand.Feasible || cost < cand.CostUpper {
				cand.Feasible = true
				cand.CostUpper = cost
			}
			best := &bestHet
			if fi == 0 {
				best = &bestBase
			}
			if !best.found || cost < best.cost {
				*best = poolSelection{found: true, cost: cost, cur: curCost, spot: spot, spotUnits: su, od: odPick}
			}
		}
		if dt != nil {
			s := provenance.Span{Kind: provenance.SpanCandidate, Nodes: W, FPTarget: fpTarget}
			if cand.Feasible {
				s.Outcome = "feasible"
				s.CostMicroUSD = int64(cand.CostUpper)
			} else {
				s.Outcome = "short"
			}
			dt.Emit(s)
		}
		j.lastDecision = append(j.lastDecision, cand)
	}
	// A heterogeneous portfolio displaces the base-weight selection only
	// when it dominates on both cost figures: its worst-case spend (bid
	// sum) AND its expected spend (current-price sum) are no higher.
	// Bids cap charges but the market bills at its own price, so a
	// lower bid sum alone can still realize a costlier interval; the
	// dominance test keeps heterogeneous runs at or below the zone-only
	// planner's cost on both axes.
	hetWins := bestHet.found && (!bestBase.found ||
		(bestHet.cost <= bestBase.cost && bestHet.cur <= bestBase.cur))
	sel := bestBase
	if hetWins {
		sel = bestHet
	}
	if dt != nil && bestBase.found && bestHet.found {
		winner := "base"
		if hetWins {
			winner = "het"
		}
		dt.Emit(provenance.Span{
			Kind: provenance.SpanDominance, Outcome: winner,
			CostMicroUSD: int64(bestBase.cost), CurMicroUSD: int64(bestBase.cur),
			AltMicroUSD: int64(bestHet.cost), AltCurMicroUSD: int64(bestHet.cur),
		})
	}
	if !sel.found {
		return j.fallbackTraced(view, spec, dt, "no-feasible-group")
	}
	bestSpot, bestSpotUnits, bestOD := sel.spot, sel.spotUnits, sel.od
	if stage == StageCritical {
		bestSpot, bestSpotUnits, bestOD = hardenQuorumPools(bestSpot, bestSpotUnits, bestOD, spec)
	}
	// The weighted descent models spot bids only; a mixed group keeps
	// its equalized solution, as in the zone path.
	if j.Refine && len(bestOD) == 0 && len(bestSpot) > 0 {
		tot := 0
		for _, u := range bestSpotUnits {
			tot += u
		}
		var before market.Money
		if dt != nil {
			before = bidSum(bestSpot)
		}
		bestSpot = refineBidsWeighted(bestSpot, bestSpotUnits, spec.QuorumUnits(tot), target, func(key string) *refineZone {
			st := byKey[key]
			if st == nil {
				return nil
			}
			return &refineZone{fpOf: st.fpOf, levels: st.levels, cur: st.cur}
		})
		if dt != nil {
			dt.Emit(provenance.Span{Kind: provenance.SpanRefine, AltMicroUSD: int64(before), CostMicroUSD: int64(bidSum(bestSpot))})
		}
	}
	if dt != nil {
		j.emitChosenPools(dt, spec, byKey, bestSpot, bestSpotUnits, bestOD, target)
	}
	out := strategy.Decision{}
	j.lastBidFPs = make(map[string]float64, len(bestSpot))
	for _, pb := range bestSpot {
		out.Bids = append(out.Bids, strategy.Bid{Zone: pb.zone, Price: pb.bid})
		if st := byKey[pb.zone]; st != nil && st.fpOf != nil {
			j.lastBidFPs[pb.zone] = st.fpOf(pb.bid)
		}
	}
	slices.SortFunc(out.Bids, byBidZone)
	for _, oc := range bestOD {
		out.OnDemand = append(out.OnDemand, oc.key)
	}
	sort.Strings(out.OnDemand)
	return out, nil
}

// hardenQuorumPools is the StageCritical posture over pools: convert
// spot members to on-demand, most expensive per capacity unit first,
// until a full unit quorum of the group runs on-demand — the weighted
// counterpart of hardenQuorum.
func hardenQuorumPools(spot []poolBid, spotUnits []int, od []odPoolCand, spec strategy.ServiceSpec) ([]poolBid, []int, []odPoolCand) {
	tot, odUnits := 0, 0
	for _, u := range spotUnits {
		tot += u
	}
	for _, oc := range od {
		tot += oc.units
		odUnits += oc.units
	}
	tUnits := spec.QuorumUnits(tot)
	if odUnits >= tUnits {
		return spot, spotUnits, od
	}
	idx := make([]int, len(spot))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(ia, ib int) int {
		if c := perUnitCmp(spot[ib].bid, spotUnits[ib], spot[ia].bid, spotUnits[ia]); c != 0 {
			return c // most expensive per unit first
		}
		return strings.Compare(spot[ia].zone, spot[ib].zone)
	})
	convert := make(map[int]bool, len(idx))
	for _, i := range idx {
		if odUnits >= tUnits {
			break
		}
		price, err := market.PoolOnDemandPrice(spot[i].zone, spec.Type)
		if err != nil {
			continue
		}
		od = append(od, odPoolCand{key: spot[i].zone, price: price, units: spotUnits[i]})
		odUnits += spotUnits[i]
		convert[i] = true
	}
	keptSpot := spot[:0:0]
	keptUnits := spotUnits[:0:0]
	for i := range spot {
		if convert[i] {
			continue
		}
		keptSpot = append(keptSpot, spot[i])
		keptUnits = append(keptUnits, spotUnits[i])
	}
	return keptSpot, keptUnits, od
}

// fitState is a prefix of fitUniformFP's bisection path: the interval
// after iters probes. The path is a pure function of the memo key —
// same midpoints, same collapse test, same iteration cap — so a state
// can be resumed by whoever holds it next and dropped at any time.
type fitState struct {
	lo, hi float64 // lo probed feasible; hi probed infeasible, or the unprobed 1
	iters  int     // bisection probes taken, of at most fitMaxIters
	ok     bool    // the target is met at probability 0, so an answer exists
	done   bool    // the path has ended and lo is the answer
}

// fitMaxIters caps a bisection, as quorum.InvertEqualFP's does.
const fitMaxIters = 100

// bounds returns the interval [lo, up] the path's final answer lies in.
// lo only rises and hi only falls along the path, and the answer is a
// probed-feasible point: never hi once hi has been probed.
func (s *fitState) bounds() (lo, up float64) {
	switch {
	case s.done:
		return s.lo, s.lo
	case s.hi < 1:
		return s.lo, math.Nextafter(s.hi, 0)
	}
	return s.lo, s.hi
}

// settle marks the path ended when the next step would not probe: the
// iteration cap is spent, or the interval has collapsed and the midpoint
// is an endpoint whose outcome is known — lo was probed feasible, hi
// infeasible unless it is still the unprobed 1 — and stays one for good.
func (s *fitState) settle() {
	mid := (s.lo + s.hi) / 2
	s.done = s.iters == fitMaxIters || mid == s.lo || (mid == s.hi && s.hi < 1)
}

// uniformAvailability is the exact unit-quorum availability of a group
// whose every member fails with probability p.
func (j *Jupiter) uniformAvailability(t int, units []int, p float64) float64 {
	fps := slices.Grow(j.ws.fps[:0], len(units))[:len(units)]
	j.ws.fps = fps
	for i := range fps {
		fps[i] = p
	}
	return j.ws.dp.Availability(t, units, fps)
}

// fitUniformFP bisects the largest uniform per-member failure
// probability p at which a group with the given capacity units meets
// the availability target under the exact unit-quorum rule (threshold
// t). It mirrors quorum.InvertEqualFP's structure — up to 100
// iterations, keeping the feasible lower endpoint — so the final
// probability is conservative: the group evaluated at it is guaranteed
// to pass.
//
// It does so lazily. The call itself only decides whether an answer
// exists (one probe, at 0) and returns the state of the bisection;
// fitStep takes it one probe further. The path is a pure function of
// (target, t, units in order) and is memoised on exactly that — the DP's
// rounding depends on the fold order, so the sequence is not
// canonicalised — which lets a later rebid of the same group, against
// other forecasts, resume where this one stopped needing precision.
func (j *Jupiter) fitUniformFP(t int, units []int, target float64) *fitState {
	key := binary.AppendUvarint(j.ws.key[:0], math.Float64bits(target))
	key = binary.AppendVarint(key, int64(t))
	for _, u := range units {
		key = binary.AppendVarint(key, int64(u))
	}
	j.ws.key = key
	if s, ok := j.fitCache[string(key)]; ok {
		return s
	}
	s := &fitState{hi: 1}
	if j.fit != nil {
		s.lo, s.ok = j.fit(t, units, target)
		s.done = true
	} else {
		s.ok = !(j.uniformAvailability(t, units, 0) < target) // not >=: a NaN target has always passed
		s.done = !s.ok
	}
	memoPut(j.fitCache, string(key), s)
	return s
}

// fitStep takes an unfinished bisection one probe further.
func (j *Jupiter) fitStep(s *fitState, t int, units []int, target float64) {
	if mid := (s.lo + s.hi) / 2; j.uniformAvailability(t, units, mid) >= target {
		s.lo = mid
	} else {
		s.hi = mid
	}
	s.iters++
	s.settle()
}

// refineBidsWeighted is refineBids over capacity units: bids descend
// one price level at a time, largest saving first, while the exact
// weighted quorum availability (unit threshold t) stays at or above
// the target. Each iteration builds one WeightedThresholdEvaluator and
// probes every pool's next level with its leave-one-out query.
func refineBidsWeighted(bids []poolBid, units []int, t int, target float64, poolInfo func(key string) *refineZone) []poolBid {
	n := len(bids)
	infos := make([]*refineZone, n)
	fps := make([]float64, n)
	for i, pb := range bids {
		infos[i] = poolInfo(pb.zone)
		if infos[i] == nil {
			return bids // cannot evaluate; keep the equalized solution
		}
		fps[i] = infos[i].fpOf(pb.bid)
	}
	nextLower := func(i int) (market.Money, bool) {
		levels := infos[i].levels
		x := sort.Search(len(levels), func(j int) bool { return levels[j] >= bids[i].bid })
		if x == 0 || levels[x-1] < infos[i].cur {
			return 0, false
		}
		return levels[x-1], true
	}
	for iter := 0; iter < 64*n; iter++ {
		ev := quorum.NewWeightedThresholdEvaluator(t, units, fps)
		bestIdx := -1
		var bestSave market.Money
		var bestBid market.Money
		var bestFP float64
		for i := range bids {
			lower, ok := nextLower(i)
			if !ok {
				continue
			}
			newFP := infos[i].fpOf(lower)
			if ev.WithNode(i, newFP) < target {
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
