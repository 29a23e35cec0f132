package spotstats

import (
	"math"
	"testing"

	"repro/internal/market"
	"repro/internal/stats"
	"repro/internal/trace"
)

func TestMemorylessnessRejectsLognormalSojourns(t *testing.T) {
	// Generated traces use lognormal sojourns (sigma 0.7), which are
	// NOT memoryless: the KS statistic must exceed the significance
	// bound — the paper's justification for a semi-Markov model.
	tr := genZone(t, "us-east-1a", 7, 13)
	rep, err := Memorylessness(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sojourns < 1000 {
		t.Fatalf("only %d sojourns", rep.Sojourns)
	}
	if rep.KS <= rep.SignificanceBound {
		t.Fatalf("KS %v within bound %v: failed to reject memorylessness", rep.KS, rep.SignificanceBound)
	}
	// Lognormal sigma=0.7 has CV ~0.8, clearly below exponential's 1.
	if rep.CoefficientOfVariation > 0.95 {
		t.Fatalf("CV %v too close to exponential", rep.CoefficientOfVariation)
	}
}

func TestMemorylessnessAcceptsExponentialSojourns(t *testing.T) {
	// A synthetic trace with genuinely exponential sojourns should NOT
	// reject memorylessness (KS near the bound or below).
	r := stats.NewRNG(5)
	tr := &trace.Trace{Zone: "x", Type: market.M1Small, Start: 0}
	now := int64(0)
	prices := []market.Money{100, 200}
	for i := 0; i < 3000; i++ {
		tr.Points = append(tr.Points, trace.PricePoint{Minute: now, Price: prices[i%2]})
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		d := int64(-math.Log(u)/(1.0/30.0)) + 1 // ~Exp(mean 30), floored
		now += d
	}
	tr.End = now
	rep, err := Memorylessness(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Flooring to integer minutes distorts slightly; allow 3x bound.
	if rep.KS > 3*rep.SignificanceBound {
		t.Fatalf("KS %v for exponential data (bound %v)", rep.KS, rep.SignificanceBound)
	}
	if rep.CoefficientOfVariation < 0.8 || rep.CoefficientOfVariation > 1.2 {
		t.Fatalf("CV %v for exponential data", rep.CoefficientOfVariation)
	}
}

func TestMemorylessnessTooShort(t *testing.T) {
	tr := &trace.Trace{Zone: "x", Type: market.M1Small, Start: 0, End: 10,
		Points: []trace.PricePoint{{Minute: 0, Price: 100}}}
	if _, err := Memorylessness(tr); err == nil {
		t.Fatal("short trace accepted")
	}
}
