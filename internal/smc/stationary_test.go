package smc

import (
	"math"
	"sync"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

func TestStationaryAlternation(t *testing.T) {
	// Deterministic A(10min)/B(5min) alternation: time-average
	// occupancy is 2/3 A, 1/3 B.
	m := altModel(t)
	f, err := m.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	if got := outOfBidFraction(f, pA); math.Abs(got-1.0/3.0) > 1e-9 {
		t.Fatalf("stationary P(price > A) = %v, want 1/3", got)
	}
	if got := outOfBidFraction(f, pB); got != 0 {
		t.Fatalf("stationary P(price > B) = %v, want 0", got)
	}
}

func TestStationaryMatchesEmpiricalOccupancy(t *testing.T) {
	// The stationary estimate should land near the trace's own
	// long-run fraction above each price level.
	set, err := trace.Generate(trace.GenConfig{
		Seed: 44, Type: market.M1Small,
		Zones: []string{"us-east-1b"}, Start: 0, End: 20 * 7 * 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := set.ByZone["us-east-1b"]
	e := NewEstimator(0)
	e.Observe(tr)
	m, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.prices {
		want := tr.FractionAbove(p)
		got := outOfBidFraction(f, p)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("price %v: stationary %v vs empirical %v", p, got, want)
		}
	}
}

func TestStationarySumsToOne(t *testing.T) {
	m := altModel(t)
	f, err := m.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, o := range f.avgOcc {
		sum += o
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("stationary occupancy sums to %v", sum)
	}
}

func TestStationaryWithAbsorbingState(t *testing.T) {
	tr := &trace.Trace{
		Zone: "test-1a", Type: market.M1Small, Start: 0, End: 40,
		Points: []trace.PricePoint{
			{Minute: 0, Price: pA},
			{Minute: 10, Price: pB},
			{Minute: 20, Price: pA},
			{Minute: 30, Price: market.Money(20000)}, // terminal
		},
	}
	e := NewEstimator(0)
	e.Observe(tr)
	m, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, o := range f.avgOcc {
		sum += o
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("occupancy sums to %v with absorbing state", sum)
	}
}

func TestStationaryMinimalBid(t *testing.T) {
	m := altModel(t)
	f, err := m.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	// Long-run: B occupies 1/3 of time, so a bid at A fails 1/3 of the
	// time; only a bid at B meets a 1% target.
	bid, ok := f.MinimalBid(0.01, 0, market.FromDollars(1))
	if !ok || bid != pB {
		t.Fatalf("MinimalBid = %v, %v; want B", bid, ok)
	}
}

// TestStationaryConcurrentOnce: Stationary called on one model from
// many goroutines at once is one computation — every caller, and every
// later call, gets the same *Forecast — and that forecast has the bits
// a fresh model trained on the same history computes.
func TestStationaryConcurrentOnce(t *testing.T) {
	m, tr := fastTestModel(t, 42, 13)
	got := make([]*Forecast, 16)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			f, err := m.Stationary()
			if err != nil {
				t.Error(err)
			}
			got[g] = f
		}()
	}
	close(start)
	wg.Wait()
	if again, _ := m.Stationary(); again != got[0] {
		t.Fatal("a later call returned a new forecast")
	}
	for g, f := range got {
		if f != got[0] {
			t.Fatalf("caller %d got forecast %p, caller 0 got %p", g, f, got[0])
		}
	}
	e := NewEstimator(0)
	e.Observe(tr)
	fresh, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.computeStationary()
	if err != nil {
		t.Fatal(err)
	}
	requireBits(t, "avgOcc", got[0].avgOcc, want.avgOcc)
	requireBits(t, "suffix", got[0].suffix, want.suffix)
}
