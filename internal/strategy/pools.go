package strategy

import (
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

// comparePerUnit is the order every rival ranks pools in: cheapest per
// capacity unit first (market.ComparePerUnit), ties broken by pool key. For a
// single-type view every pool has equal units, so this is exactly the
// by-price order the paper's strategies always used. Pool keys are
// unique within a view, so the order is total (pinned by
// TestSortPerUnitIsATotalOrder).
func comparePerUnit(a, b pricedPool) int {
	if c := market.ComparePerUnit(a.price, a.units, b.price, b.units); c != 0 {
		return c
	}
	return strings.Compare(a.key, b.key)
}

// cheapestUnits selects, from pools offered to it one at a time, the
// shortest comparePerUnit-ordered prefix that covers need capacity units
// — one instance per pool, each contributing its full unit weight — or
// every offered pool when together they fall short. That is the
// selection of sorting all offered pools and filling need units from
// the front, made without holding or sorting them all: a pool ranked
// after a covering prefix can never enter it.
type cheapestUnits struct {
	need   int
	have   int          // units of picked
	picked []pricedPool // in comparePerUnit order
}

// offer considers one more pool.
func (c *cheapestUnits) offer(p pricedPool) {
	if c.need <= 0 {
		return
	}
	i := len(c.picked)
	if c.have >= c.need && comparePerUnit(p, c.picked[i-1]) > 0 {
		return
	}
	for i > 0 && comparePerUnit(p, c.picked[i-1]) < 0 {
		i--
	}
	if c.picked == nil {
		c.picked = make([]pricedPool, 0, 8)
	}
	c.picked = slices.Insert(c.picked, i, p)
	c.have += p.units
	for n := len(c.picked); c.have-c.picked[n-1].units >= c.need; n-- {
		c.have -= c.picked[n-1].units
		c.picked = c.picked[:n-1]
	}
}

// prefix returns the shortest prefix of the picked pools that covers
// units; a smaller need's selection is a prefix of a larger one's.
func (c *cheapestUnits) prefix(units int) []pricedPool {
	n := 0
	for need := units; need > 0 && n < len(c.picked); n++ {
		need -= c.picked[n].units
	}
	return c.picked[:n]
}
