package strategy

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/market"
)

// pricedPool is one candidate pool with a ranking price and its
// capacity in base-type units — the shared currency of the
// heterogeneous pool view (see market.CapacityUnits).
type pricedPool struct {
	key   string
	price market.Money
	units int
}

// FeasiblePools returns the view's candidate pools after the spec's
// minimum-shape constraint (market.FilterPools). Unconstrained specs
// see the view untouched, so single-type decisions stay byte-identical
// to the pre-filter behaviour.
func FeasiblePools(view MarketView, spec ServiceSpec) ([]string, error) {
	pools := view.Zones()
	if !spec.Constrained() {
		return pools, nil
	}
	return market.FilterPools(pools, spec.Type, spec.MinVCPU, spec.MinMemGiB)
}

// sortPerUnit orders pools cheapest per capacity unit first:
// price_i/units_i < price_j/units_j, cross-multiplied to stay in
// integers, ties broken by pool key. For a single-type view every pool
// has equal units, so this is exactly the by-price order the paper's
// strategies always used. Pool keys are unique within a view, so the
// order is total and the unstable sort has one possible result (pinned
// by TestSortPerUnitIsATotalOrder).
func sortPerUnit(pools []pricedPool) {
	slices.SortFunc(pools, func(a, b pricedPool) int {
		if c := cmp.Compare(int64(a.price)*int64(b.units), int64(b.price)*int64(a.units)); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
}

// fillUnits takes the prefix of (already ranked) pools that covers the
// requested capacity units — one instance per pool, each contributing
// its full unit weight.
func fillUnits(pools []pricedPool, units int) []pricedPool {
	need := units
	out := pools[:0:0]
	for _, p := range pools {
		if need <= 0 {
			break
		}
		out = append(out, p)
		need -= p.units
	}
	return out
}
