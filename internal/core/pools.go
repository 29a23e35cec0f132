// The planner: the Fig. 3 algorithm over capacity-weighted (zone ×
// instance type) pools. A pool of capacity weight w plays the role of w
// base nodes — Equation 11's observation that a node of weight w counts
// as w survivors — so group sizes are enumerated in base-node
// equivalents W, candidate pools are ranked by bid per capacity unit,
// and a group that is not simply W base nodes is checked exactly with
// the unit-sum quorum rule (quorum.WeightedThresholdAvailability)
// instead of being trusted to the equalized per-node target.
//
// It is the only planner. A single-type market is the case where every
// pool carries market.UnitsPerNode units: the per-unit orders are then
// the cheapest-bid order, every group is W base nodes, and what runs is
// the paper's algorithm as printed — no exact check, no rebid, one
// candidate family (DESIGN.md §2.10).
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

// poolScratch is what the planner works in, one per Jupiter and reused by
// every Decide: the exact-quorum checks' DP row, a group's unit and
// probability vectors and the memo key under construction; and a group
// size's candidate lists, which only the selection that becomes the best
// so far is copied out of, and the price list of the enumeration's cut.
type poolScratch struct {
	dp    quorum.WeightedDP
	units []int
	fps   []float64
	key   []byte

	base, perUnit, fit []poolBid
	used               []bool
	floor              []unitPrice
}

// unitPrice is the least a group pays for a pool's capacity units.
type unitPrice struct {
	price market.Money
	units int
}

// cheapestFill is the fractional fill of need units from items sorted by
// market.ComparePerUnit (whole items, then the floor of a pro-rated last
// one): no selection paying at least the listed prices costs less. It
// never decreases in need, and items of one price per unit fill at one
// rate, so their order is immaterial.
func cheapestFill(items []unitPrice, need int) market.Money {
	var cost market.Money
	for _, it := range items {
		if need <= it.units {
			return cost + market.Money(int64(it.price)*int64(need)/int64(it.units))
		}
		cost += it.price
		need -= it.units
	}
	return cost
}

// odPoolCand is an on-demand substitution candidate: a pool whose
// on-demand instance can pad a degraded group.
type odPoolCand struct {
	key   string
	price market.Money
	units int
}

// cheapestPerUnitFirst orders bids by price per capacity unit, then pool
// key. Over pools of equal units it is cheapestBidFirst.
func cheapestPerUnitFirst(a, b poolBid) int {
	if c := market.ComparePerUnit(a.bid, a.pool.units, b.bid, b.pool.units); c != 0 {
		return c
	}
	return strings.Compare(a.pool.zone, b.pool.zone)
}

// poolSelection is one fully-priced candidate group.
type poolSelection struct {
	found     bool
	cost, cur market.Money
	spot      []poolBid
	od        []odPoolCand
}

// decidePools is the enumeration behind Decide, over every pool of the
// view.
func (j *Jupiter) decidePools(view strategy.MarketView, spec strategy.ServiceSpec, intervalMinutes int64) (strategy.Decision, error) {
	pools := view.Zones()
	target := spec.TargetAvailability()
	now := view.Now()

	// Staged degradation (health.go): stays stageHealthy — and changes
	// nothing below — unless faults have been observed via OnFault.
	stage := stageHealthy
	if j.health != nil && j.health.faults > 0 {
		stage = j.health.stage(now)
	}
	prevStage := j.lastStage
	j.lastStage = stage
	if stage != prevStage {
		publishStage(view, now, stage)
	}

	dt := j.prov.Begin(now)
	if dt != nil {
		emitStage(dt, prevStage, stage)
	}

	// One failure estimator per pool, shared across all group sizes, in
	// pool order so every loop below is deterministic.
	snaps, err := j.buildPoolSnapshots(view, spec, pools, now, intervalMinutes, dt)
	if err != nil {
		return strategy.Decision{}, err
	}
	// allBase: every spot and on-demand candidate of this Decide is one
	// base node. The three candidate families below then build the same
	// group, so one of them runs. floor prices each candidate at the least
	// a group pays for it, for the enumeration's cut: constraint (9) puts
	// no spot bid under its pool's current price (the list filter and the
	// rebid both refuse one), and an on-demand member pays its own price.
	allBase := true
	states, floor := snaps[:0], j.ws.floor[:0]
	for _, st := range snaps {
		u, uerr := market.PoolCapacityUnits(st.zone, spec.Type)
		if uerr != nil {
			continue // pool key outside the catalog; unusable
		}
		st.units = u
		allBase = allBase && u == market.UnitsPerNode
		states = append(states, st)
		floor = append(floor, unitPrice{st.cur, u})
	}
	if len(states) == 0 {
		return j.fallbackTraced(view, spec, dt, "no-usable-pools")
	}

	// One pass over the view's pools, usable this round or not, for
	// two things. capUnits, what they could supply together, caps the
	// enumeration below: quarantine shortens groups, not the
	// enumeration, so a size it leaves unfillable is listed short and a
	// load target clamps where it would on the healthy market. And
	// odPool: under degradation, groups that quarantine leaves short of
	// adequate spot capacity are padded with on-demand instances from the
	// cheapest-per-unit non-quarantined pools. An on-demand node fails
	// with fp0 <= fpTarget (targets below fp0 are rejected), so a padded
	// group of W base nodes still meets the equalized bound of Equation 10.
	capUnits := 0
	var odPool []odPoolCand
	for _, p := range pools {
		u, uerr := market.PoolCapacityUnits(p, spec.Type)
		if uerr != nil {
			continue
		}
		capUnits += u
		if stage == stageHealthy || j.health.quarantinedKey(p, now) {
			continue
		}
		od, perr := market.PoolOnDemandPrice(p, spec.Type)
		if perr != nil {
			continue
		}
		allBase = allBase && u == market.UnitsPerNode
		odPool = append(odPool, odPoolCand{key: p, price: od, units: u})
		floor = append(floor, unitPrice{od, u})
	}
	slices.SortFunc(odPool, func(a, b odPoolCand) int {
		if c := market.ComparePerUnit(a.price, a.units, b.price, b.units); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	slices.SortFunc(floor, func(a, b unitPrice) int { return market.ComparePerUnit(a.price, a.units, b.price, b.units) })
	j.ws.floor = floor

	// W enumerates target capacity in base-node equivalents.
	maxW := min(len(pools), capUnits/market.UnitsPerNode)
	minW := max(spec.DataShards, 1)
	// A workload load target (strategy.LoadTargeter) raises the floor:
	// the autoscaler's target group size, in base-node equivalents, is
	// the least the decision may provision, clamped to what the market
	// can host. Fixed-n runs attach no targeter and enumerate as before.
	if lt, ok := view.(strategy.LoadTargeter); ok {
		if t, ok := lt.TargetNodes(); ok {
			if t = min(t, maxW); t > minW {
				minW = t
				if dt != nil {
					dt.Emit(provenance.Span{Kind: provenance.SpanResize, Nodes: minW})
				}
			}
		}
	}

	// evaluate prices a candidate group for W base-node equivalents and
	// says whether it meets the target. On-demand members fail at fp0. It
	// returns both the planned cost (the sum of bids — the group's
	// worst-case spend, the figure the Fig. 3 enumeration minimizes) and
	// the expected cost (the sum of current prices — what the group bills
	// if the market holds still).
	//
	// A group of exactly W base nodes meets Equation 10 by monotonicity:
	// every member was bid to (minBid's contract), or as an on-demand node
	// sits at fp0 which is no worse than, the W-node equalized target. That
	// is the paper's own argument, and such a group is not put to the DP —
	// which reads the on-demand baseline itself one ulp below the target
	// computed from it (quorum.TestBaselineReadsOneUlpBelowItsOwnTarget).
	// Any other group has fewer, heavier failure domains than the
	// inversion assumed and is gated on the exact unit-quorum availability.
	evaluate := func(W int, spot []poolBid, od []odPoolCand, repaired bool) (cost, curCost market.Money, ok bool) {
		tot, baseNodes := 0, true
		for _, pb := range spot {
			tot += pb.pool.units
			baseNodes = baseNodes && pb.pool.units == market.UnitsPerNode
			cost += pb.bid
			curCost += pb.pool.cur
		}
		for _, oc := range od {
			tot += oc.units
			baseNodes = baseNodes && oc.units == market.UnitsPerNode
			cost += oc.price
			curCost += oc.price
		}
		if j.priced != nil {
			j.priced(W, cost, repaired)
		}
		if baseNodes && len(spot)+len(od) == W {
			return cost, curCost, true
		}
		t := spec.QuorumUnits(tot)
		if t > tot {
			return 0, 0, false // too little capacity to ever form a quorum
		}
		units, fps := j.ws.units[:0], j.ws.fps[:0]
		for _, pb := range spot {
			units = append(units, pb.pool.units)
			fps = append(fps, pb.pool.fpOf(pb.bid))
		}
		for _, oc := range od {
			units = append(units, oc.units)
			fps = append(fps, fp0)
		}
		j.ws.units, j.ws.fps = units, fps
		return cost, curCost, j.ws.dp.Availability(t, units, fps) >= target
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
	// fp is compare it with fp0 and hand it to each member's minBid, a
	// step function of a few levels per pool that is monotone
	// non-increasing in its target; so with fp known to lie in [lo, up],
	// up < fp0 already fails the group, and lo >= fp0 with a member
	// answering the same at lo and at up already is that member's answer
	// at fp. Members are walked in order, as the converged rebid would;
	// the first one the interval cannot yet decide buys one more probe.
	rebid := func(spot []poolBid, od []odPoolCand) ([]poolBid, bool) {
		tot := 0
		units := j.ws.units[:0]
		for _, pb := range spot {
			units = append(units, pb.pool.units)
			tot += pb.pool.units
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
				bid, ok := pb.pool.minBid(lo)
				if lo != up {
					if b, k := pb.pool.minBid(up); b != bid || k != ok {
						return false, false
					}
				}
				if !ok || bid < pb.pool.cur {
					return false, true
				}
				out[i] = poolBid{pool: pb.pool, bid: bid}
			}
			return true, true
		}
		for {
			lo, up := fit.bounds()
			if up < fp0 {
				return nil, false
			}
			if lo >= fp0 {
				if ok, decided := price(lo, up); decided {
					return out, ok
				}
			}
			j.fitStep(fit, t, units, target)
		}
	}

	// bestBase tracks the base-weight family — cheapest base-type pools
	// only, the paper's selection — and bestHet the heterogeneous
	// families, both minimized by planned cost.
	var bestBase, bestHet poolSelection

	for W := minW; W <= maxW; W++ {
		// The cut: every group at W or above costs at least the cheapest
		// fill of W·UnitsPerNode units, and a family keeps only a strictly
		// cheaper group, so once that bound reaches every running family's
		// best, nothing larger can win. A family with no group holds it off.
		lb := cheapestFill(floor, W*market.UnitsPerNode)
		if bestBase.found && lb >= bestBase.cost && (allBase || bestHet.found && lb >= bestHet.cost) {
			if dt != nil {
				dt.Emit(provenance.Span{Kind: provenance.SpanCandidate, Nodes: W, Outcome: "pruned", CostMicroUSD: int64(lb)})
			}
			break
		}
		fpTarget, ok := j.invertFP(W, spec.QuorumSize(W), target)
		if !ok || fpTarget < fp0 {
			if dt != nil {
				dt.Emit(provenance.Span{Kind: provenance.SpanCandidate, Nodes: W, Outcome: "infeasible-target"})
			}
			continue
		}

		// Per-pool minimal bids at the equalized per-node target, listed
		// twice: the base-type pools cheapest bid first, and — unless that
		// is all there is — every pool cheapest per capacity unit first.
		// Constraint (9): the bid must clear the pool's current price,
		// which is the one already fetched for the forecast — the market
		// cannot move within a Decide.
		base, perUnit := j.ws.base[:0], j.ws.perUnit[:0]
		for _, st := range states {
			bid, ok := st.minBid(fpTarget)
			if !ok || bid < st.cur {
				continue
			}
			if st.units == market.UnitsPerNode {
				base = append(base, poolBid{pool: st, bid: bid})
			}
			if !allBase {
				perUnit = append(perUnit, poolBid{pool: st, bid: bid})
			}
		}
		slices.SortFunc(base, cheapestBidFirst)
		slices.SortFunc(perUnit, cheapestPerUnitFirst)
		j.ws.base, j.ws.perUnit = base, perUnit
		needUnits := W * market.UnitsPerNode

		// greedy fills the target capacity from the front of an ordering.
		greedy := func(order []poolBid) ([]poolBid, int) {
			got := 0
			for i, pb := range order {
				if got >= needUnits {
					return order[:i], got
				}
				got += pb.pool.units
			}
			return order, got
		}

		// fitFirst walks the ordering but only takes pools that fit inside
		// the remaining capacity gap, so a cheap-per-unit heavy pool taken
		// early doesn't force paying for a large overshoot. When nothing
		// fits the residual gap, it is closed with the cheapest absolute
		// bid still unused.
		fitFirst := func(order []poolBid) ([]poolBid, int) {
			used := slices.Grow(j.ws.used[:0], len(order))[:len(order)]
			clear(used)
			spot, got := j.ws.fit[:0], 0
			for got < needUnits {
				picked := -1
				for i, pb := range order {
					if !used[i] && pb.pool.units <= needUnits-got {
						picked = i
						break
					}
				}
				if picked < 0 {
					for i, pb := range order {
						if !used[i] && (picked < 0 || cheapestBidFirst(pb, order[picked]) < 0) {
							picked = i
						}
					}
					if picked < 0 {
						break
					}
				}
				used[picked] = true
				spot = append(spot, order[picked])
				got += order[picked].pool.units
			}
			j.ws.used, j.ws.fit = used, spot
			return spot, got
		}

		// consider builds one family's group for this W, tops it up with
		// on-demand pools if it is short of the target capacity (only
		// possible under degradation), prices and checks it — repairing
		// its bids once if the exact check fails — and keeps it if it is
		// the family's cheapest so far. The group lives in scratch until
		// then. wCost, the cheapest group cost of any family at this W, is
		// what the size's candidate span records; -1 while none is
		// feasible.
		wCost := market.Money(-1)
		consider := func(best *poolSelection, fill func([]poolBid) ([]poolBid, int), order []poolBid) {
			spot, got := fill(order)
			var odPick []odPoolCand
			if got < needUnits && len(odPool) > 0 {
				taken := make(map[string]bool, len(spot))
				for _, pb := range spot {
					taken[pb.pool.zone] = true
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
			if got < needUnits {
				return
			}
			cost, curCost, feasible := evaluate(W, spot, odPick, false)
			if !feasible {
				var repaired bool
				if spot, repaired = rebid(spot, odPick); !repaired {
					return
				}
				if cost, curCost, feasible = evaluate(W, spot, odPick, true); !feasible {
					return
				}
			}
			if wCost < 0 || cost < wCost {
				wCost = cost
			}
			if !best.found || cost < best.cost {
				*best = poolSelection{found: true, cost: cost, cur: curCost, spot: append(best.spot[:0], spot...), od: odPick}
			}
		}

		// Three candidate families race per W: (a) cheapest base-weight
		// pools only — the paper's selection; (b) cheapest bid per
		// capacity unit over every pool — the heterogeneous portfolio;
		// (c) the fit-first variant of (b), which avoids paying for
		// overshoot. Keeping (a) in the race means the planned cost never
		// exceeds a base-type-only plan's over the same models.
		consider(&bestBase, greedy, base)
		if !allBase {
			consider(&bestHet, greedy, perUnit)
			consider(&bestHet, fitFirst, perUnit)
		}
		if dt != nil {
			s := provenance.Span{Kind: provenance.SpanCandidate, Nodes: W, FPTarget: fpTarget, Outcome: "short"}
			if wCost >= 0 {
				s.Outcome, s.CostMicroUSD = "feasible", int64(wCost)
			}
			dt.Emit(s)
		}
	}
	// A heterogeneous portfolio displaces the base-weight selection only
	// when it dominates on both cost figures: its worst-case spend (bid
	// sum) AND its expected spend (current-price sum) are no higher.
	// Bids cap charges but the market bills at its own price, so a
	// lower bid sum alone can still realize a costlier interval; the
	// dominance test keeps heterogeneous runs at or below a
	// base-type-only plan's cost on both axes.
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
	bestSpot, bestOD := sel.spot, sel.od
	if stage == stageCritical {
		bestSpot, bestOD = hardenQuorumPools(bestSpot, bestOD, spec)
	}
	if dt != nil {
		j.emitChosenPools(dt, spec, bestSpot, bestOD, target)
	}
	out := strategy.Decision{}
	j.lastBidFPs = make(map[string]float64, len(bestSpot))
	for _, pb := range bestSpot {
		out.Bids = append(out.Bids, strategy.Bid{Zone: pb.pool.zone, Price: pb.bid})
		j.lastBidFPs[pb.pool.zone] = pb.pool.fpOf(pb.bid)
	}
	slices.SortFunc(out.Bids, byBidZone)
	for _, oc := range bestOD {
		out.OnDemand = append(out.OnDemand, oc.key)
	}
	sort.Strings(out.OnDemand)
	return out, nil
}

// hardenQuorumPools is the stageCritical posture: convert spot members
// to on-demand, most expensive per capacity unit first, until a full unit
// quorum of the group runs on-demand — which keeps the service up even
// if every spot member is lost at once (a correlated reclamation storm).
func hardenQuorumPools(spot []poolBid, od []odPoolCand, spec strategy.ServiceSpec) ([]poolBid, []odPoolCand) {
	tot, odUnits := 0, 0
	for _, pb := range spot {
		tot += pb.pool.units
	}
	for _, oc := range od {
		tot += oc.units
		odUnits += oc.units
	}
	tUnits := spec.QuorumUnits(tot)
	if odUnits >= tUnits {
		return spot, od
	}
	byCost := slices.Clone(spot)
	slices.SortFunc(byCost, func(a, b poolBid) int {
		if c := market.ComparePerUnit(b.bid, b.pool.units, a.bid, a.pool.units); c != 0 {
			return c // most expensive per unit first
		}
		return strings.Compare(a.pool.zone, b.pool.zone)
	})
	convert := make(map[*poolSnapshot]bool, len(byCost))
	for _, pb := range byCost {
		if odUnits >= tUnits {
			break
		}
		price, err := market.PoolOnDemandPrice(pb.pool.zone, spec.Type)
		if err != nil {
			continue
		}
		od = append(od, odPoolCand{key: pb.pool.zone, price: price, units: pb.pool.units})
		odUnits += pb.pool.units
		convert[pb.pool] = true
	}
	kept := spot[:0:0]
	for _, pb := range spot {
		if !convert[pb.pool] {
			kept = append(kept, pb)
		}
	}
	return kept, od
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
