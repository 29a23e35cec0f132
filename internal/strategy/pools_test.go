package strategy

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/market"
)

// sortPerUnit is the rivals' ranking as it stood before cheapestUnits:
// every pool priced, then all of them sorted cheapest per capacity unit
// first, ties broken by pool key. It is the reference the selector must
// match.
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
// its full unit weight. With sortPerUnit it is the reference selection.
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

// randomPools draws n pools with unique keys from a handful of prices
// and unit weights, so per-unit ties are everywhere.
func randomPools(rng *rand.Rand, n int, units []int) []pricedPool {
	pools := make([]pricedPool, n)
	for i := range pools {
		pools[i] = pricedPool{
			key:   fmt.Sprintf("zone-%02d/type-%d", rng.Intn(17), i),
			price: market.Money(100 * (1 + rng.Intn(4))),
			units: units[rng.Intn(len(units))],
		}
	}
	return pools
}

// TestSortPerUnitIsATotalOrder: comparePerUnit ranks pools for every
// rival, and an unstable sort under it is safe only because its order is
// total. Pools drawn from a handful of prices and weights — so per-unit
// ties are everywhere — with unique keys must come out of every input
// permutation in one order, the one the stable sort under the original
// less-function gives.
func TestSortPerUnitIsATotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	for trial := 0; trial < 200; trial++ {
		pools := randomPools(rng, 1+rng.Intn(68), []int{1, 2, 4})
		want := slices.Clone(pools)
		sort.SliceStable(want, func(i, j int) bool {
			a := int64(want[i].price) * int64(want[j].units)
			b := int64(want[j].price) * int64(want[i].units)
			if a != b {
				return a < b
			}
			return want[i].key < want[j].key
		})
		for shuffle := 0; shuffle < 5; shuffle++ {
			rng.Shuffle(len(pools), func(i, j int) { pools[i], pools[j] = pools[j], pools[i] })
			got := slices.Clone(pools)
			slices.SortFunc(got, comparePerUnit)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d shuffle %d: order depends on the input permutation:\n got %v\nwant %v", trial, shuffle, got, want)
			}
		}
	}
}

// TestCheapestUnitsMatchesSortAndFill: offered pools one at a time, in
// any order, the selector picks the pools sortPerUnit + fillUnits pick,
// in the same order, and its prefixes are fillUnits' smaller fills.
// Random pool sets mix 16-, 32- and 64-unit pools with per-unit ties
// under different keys; needs run from below zero to past the supply.
func TestCheapestUnitsMatchesSortAndFill(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	check := func(pools []pricedPool, need int) {
		t.Helper()
		want := slices.Clone(pools)
		sortPerUnit(want)
		sel := cheapestUnits{need: need}
		for _, p := range pools {
			sel.offer(p)
		}
		if got, w := sel.picked, fillUnits(want, need); !slices.Equal(got, w) {
			t.Fatalf("need %d over %v:\n got %v\nwant %v", need, pools, got, w)
		}
		for units := -16; units <= need; units += 8 {
			if got, w := sel.prefix(units), fillUnits(want, units); !slices.Equal(got, w) {
				t.Fatalf("prefix(%d) of need %d over %v:\n got %v\nwant %v", units, need, pools, got, w)
			}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		pools := randomPools(rng, 1+rng.Intn(68), []int{16, 32, 64})
		supply := 0
		for _, p := range pools {
			supply += p.units
		}
		check(pools, rng.Intn(supply+64)-16)
	}

	tie := []pricedPool{
		{key: "b", price: 200, units: 32},
		{key: "a", price: 100, units: 16},
		{key: "c", price: 400, units: 64},
	}
	for need := -1; need <= 112+16; need++ {
		check(tie, need) // equal price per unit: the key decides
	}
	one := []pricedPool{{key: "us-east-1a", price: 7100, units: 16}}
	for _, need := range []int{-16, 0, 1, 16, 17, 80} {
		check(one, need)
	}
}
