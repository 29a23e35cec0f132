package trace_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/market"
	"repro/internal/smc"
	"repro/internal/trace"
)

// copyWindow is the window a copy makes: fresh storage whose first
// point is forced to (lo, the price in effect at lo), so it passes
// Validate. The view must answer every question as this copy does.
func copyWindow(t *trace.Trace, lo, hi int64) *trace.Trace {
	w := &trace.Trace{Zone: t.Zone, Type: t.Type, Start: lo, End: hi}
	if lo == hi {
		return w
	}
	w.Points = []trace.PricePoint{{Minute: lo, Price: t.PriceAt(lo)}}
	for _, p := range t.Points {
		if p.Minute > lo && p.Minute < hi {
			w.Points = append(w.Points, p)
		}
	}
	return w
}

// viewTestTraces are generated zones, plus a three-price trace whose
// neighbouring points often repeat a price, so runs merge across a
// window's start.
func viewTestTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: 11, Type: market.M1Small, Zones: []string{"us-east-1a", "eu-west-1c"}, Start: 0, End: 14 * 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	trs := []*trace.Trace{set.ByZone["us-east-1a"], set.ByZone["eu-west-1c"]}
	rng := rand.New(rand.NewSource(4))
	rep := &trace.Trace{Zone: "test-1a", Type: market.M1Small, Start: 100}
	for m := rep.Start; m < 20000; m += 1 + rng.Int63n(60) {
		rep.Points = append(rep.Points, trace.PricePoint{Minute: m, Price: market.Money(1000 + 50*rng.Intn(3))})
		rep.End = m + 1 + rng.Int63n(60)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	return append(trs, rep)
}

// TestWindowViewMatchesCopy is the oracle of Window's views: over
// random windows — empty ones, one-minute ones, ones starting on a
// price change and between two — a view answers PriceAt, AgeAt,
// Sojourns, MeanPrice, FractionAbove and MaxPrice exactly as the copy
// does, and an Estimator that observes it counts exactly what one
// observing the copy counts. An append to the view's points leaves
// its parent unchanged.
func TestWindowViewMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tr := range viewTestTraces(t) {
		parent := slices.Clone(tr.Points)
		for i := 0; i < 300; i++ {
			lo := tr.Start + rng.Int63n(tr.End-tr.Start)
			if i%5 == 0 { // on a price change
				lo = tr.Points[rng.Intn(len(tr.Points))].Minute
			}
			hi := lo + rng.Int63n(tr.End-lo+1)
			if i%7 == 0 {
				hi = min(lo+1, tr.End)
			}
			view, ref := tr.Window(lo, hi), copyWindow(tr, lo, hi)
			if view.Start != lo || view.End != hi {
				t.Fatalf("window [%d, %d): view spans [%d, %d)", lo, hi, view.Start, view.End)
			}
			for _, m := range []int64{lo, lo + (hi-lo)/3, lo + (hi-lo)/2, hi - 1, lo + rng.Int63n(max(hi-lo, 1))} {
				if m < lo || m >= hi {
					continue
				}
				if got, want := view.PriceAt(m), ref.PriceAt(m); got != want {
					t.Fatalf("window [%d, %d): PriceAt(%d) = %v, copy %v", lo, hi, m, got, want)
				}
				if got, want := view.AgeAt(m), ref.AgeAt(m); got != want {
					t.Fatalf("window [%d, %d): AgeAt(%d) = %d, copy %d", lo, hi, m, got, want)
				}
			}
			if got, want := view.Sojourns(), ref.Sojourns(); !slices.Equal(got, want) {
				t.Fatalf("window [%d, %d): Sojourns %v, copy %v", lo, hi, got, want)
			}
			if got, want := view.MeanPrice(), ref.MeanPrice(); got != want {
				t.Fatalf("window [%d, %d): MeanPrice %v, copy %v", lo, hi, got, want)
			}
			if got, want := view.MaxPrice(), ref.MaxPrice(); got != want {
				t.Fatalf("window [%d, %d): MaxPrice %v, copy %v", lo, hi, got, want)
			}
			for range 4 {
				p := tr.Points[rng.Intn(len(tr.Points))]
				for _, th := range []market.Money{p.Price - 1, p.Price} {
					if got, want := view.FractionAbove(th), ref.FractionAbove(th); got != want {
						t.Fatalf("window [%d, %d): FractionAbove(%v) = %v, copy %v", lo, hi, th, got, want)
					}
				}
			}
			ev, er := smc.NewEstimator(0), smc.NewEstimator(0)
			ev.Observe(view)
			er.Observe(ref)
			if !reflect.DeepEqual(ev, er) {
				t.Fatalf("window [%d, %d): observing the view counts otherwise than observing the copy", lo, hi)
			}

			view.Points = append(view.Points, trace.PricePoint{Minute: hi, Price: 1})
			if !slices.Equal(tr.Points, parent) {
				t.Fatalf("window [%d, %d): an append to the view wrote into its parent", lo, hi)
			}
		}
	}
}
