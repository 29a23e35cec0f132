package strategy

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// quantilePriceReference is quantilePrice as it was before it walked
// the runs in place: sort a copy of the runs by price, then accumulate.
func quantilePriceReference(t *trace.Trace, q float64) market.Money {
	sojourns := t.Sojourns()
	if len(sojourns) == 0 {
		return 0
	}
	sort.Slice(sojourns, func(i, j int) bool { return sojourns[i].Price < sojourns[j].Price })
	var total int64
	for _, s := range sojourns {
		total += s.Minutes
	}
	threshold := int64(q * float64(total))
	var cum int64
	for _, s := range sojourns {
		cum += s.Minutes
		if cum >= threshold {
			return s.Price
		}
	}
	return sojourns[len(sojourns)-1].Price
}

// upwardCrossingsReference counts crossings over the collected runs.
func upwardCrossingsReference(hist *trace.Trace, b market.Money) int {
	n := 0
	prevAbove := false
	for i, s := range hist.Sojourns() {
		above := s.Price > b
		if i > 0 && above && !prevAbove {
			n++
		}
		prevAbove = above
	}
	return n
}

// TestHistoryScansMatchReference: over random windows of generated
// markets, empty ones included, the rivals' in-place history scans
// answer as the slice-building ones did.
func TestHistoryScansMatchReference(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 5, Type: market.M1Small, Types: []market.InstanceType{market.M3Large},
		Zones: []string{"us-east-1a", "ap-northeast-1a"}, Start: 0, End: 3 * 7 * 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for _, key := range set.Zones() {
		tr := set.ByZone[key]
		for i := 0; i < 200; i++ {
			lo := tr.Start + rng.Int63n(tr.End-tr.Start)
			w := tr.Window(lo, lo+rng.Int63n(min(tr.End-lo, 3*24*60)+1))
			for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
				if got, want := quantilePrice(w, q), quantilePriceReference(w, q); got != want {
					t.Fatalf("%s [%d, %d): quantilePrice(%v) = %v, reference %v", key, w.Start, w.End, q, got, want)
				}
			}
			if len(w.Points) == 0 {
				continue
			}
			b := w.Points[rng.Intn(len(w.Points))].Price
			if got, want := upwardCrossings(w, b), upwardCrossingsReference(w, b); got != want {
				t.Fatalf("%s [%d, %d): upwardCrossings(%v) = %d, reference %d", key, w.Start, w.End, b, got, want)
			}
			var levels []market.Money
			for _, s := range w.Sojourns() {
				if s.Price >= b && s.Price <= 2*b && !slices.Contains(levels, s.Price) {
					levels = append(levels, s.Price)
				}
			}
			levels = append(levels, b, 2*b)
			slices.Sort(levels)
			if got, want := candidateLevels(w, b, 2*b), slices.Compact(levels); !slices.Equal(got, want) {
				t.Fatalf("%s [%d, %d): candidateLevels = %v, reference %v", key, w.Start, w.End, got, want)
			}
		}
	}
}
