package strategy

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/market"
)

// TestSortPerUnitIsATotalOrder: sortPerUnit uses an unstable sort, which
// is safe only because its order is total. Pools drawn from a handful of
// prices and weights — so per-unit ties are everywhere — with unique
// keys must come out of every input permutation in one order, the one
// the stable sort under the original less-function gives.
func TestSortPerUnitIsATotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	for trial := 0; trial < 200; trial++ {
		pools := make([]pricedPool, 1+rng.Intn(68))
		for i := range pools {
			pools[i] = pricedPool{
				key:   fmt.Sprintf("zone-%02d/type-%d", rng.Intn(17), i),
				price: market.Money(100 * (1 + rng.Intn(4))),
				units: []int{1, 2, 4}[rng.Intn(3)],
			}
		}
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
			sortPerUnit(got)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d shuffle %d: order depends on the input permutation:\n got %v\nwant %v", trial, shuffle, got, want)
			}
		}
	}
}
