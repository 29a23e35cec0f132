package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/strategy"
	"repro/internal/trace"
)

func TestAdaptiveChoosesWithinRange(t *testing.T) {
	view := genView(t, 42, 13)
	a := NewAdaptive()
	iv := a.ChooseInterval(view, lockSpec())
	if iv < adaptiveMinMinutes || iv > adaptiveMaxMinutes {
		t.Fatalf("chose %d minutes, outside [%d, %d]", iv, adaptiveMinMinutes, adaptiveMaxMinutes)
	}
	if iv%60 != 0 {
		t.Fatalf("chose %d, want whole hours", iv)
	}
}

func TestAdaptiveRespondsToChurn(t *testing.T) {
	// A calm market should get a longer interval than a churning one.
	calm := &trace.Trace{Zone: "us-east-1a", Type: market.M1Small, Start: 0, End: 3 * 24 * 60}
	for m := int64(0); m < calm.End; m += 12 * 60 {
		price := market.FromDollars(0.007)
		if (m/(12*60))%2 == 1 {
			price = market.FromDollars(0.008)
		}
		calm.Points = append(calm.Points, trace.PricePoint{Minute: m, Price: price})
	}
	churny := &trace.Trace{Zone: "us-east-1a", Type: market.M1Small, Start: 0, End: 3 * 24 * 60}
	for m := int64(0); m < churny.End; m += 10 {
		price := market.FromDollars(0.007)
		if (m/10)%2 == 1 {
			price = market.FromDollars(0.008)
		}
		churny.Points = append(churny.Points, trace.PricePoint{Minute: m, Price: price})
	}
	mk := func(tr *trace.Trace) traceView {
		set := trace.NewSet(market.M1Small, tr.Start, tr.End)
		if err := set.Add(tr); err != nil {
			t.Fatal(err)
		}
		return traceView{set: set, now: tr.End - 1}
	}
	a := NewAdaptive()
	calmIv := a.ChooseInterval(mk(calm), lockSpec())
	churnIv := a.ChooseInterval(mk(churny), lockSpec())
	if churnIv >= calmIv {
		t.Fatalf("churny interval %d >= calm interval %d", churnIv, calmIv)
	}
	if churnIv != adaptiveMinMinutes {
		t.Fatalf("10-minute churn should pin the minimum, got %d", churnIv)
	}
	if calmIv != adaptiveMaxMinutes {
		t.Fatalf("12-hour sojourns should pin the maximum, got %d", calmIv)
	}
}

func TestAdaptiveDecideDelegates(t *testing.T) {
	view := genView(t, 42, 13)
	a := NewAdaptive()
	iv := a.ChooseInterval(view, lockSpec())
	d, err := a.Decide(view, lockSpec(), iv)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bids) == 0 && len(d.OnDemand) == 0 {
		t.Fatal("adaptive made no decision")
	}
	if a.Name() != "Jupiter-adaptive" {
		t.Fatalf("Name = %q", a.Name())
	}
}

func TestAdaptiveNoHistoryFallsToMax(t *testing.T) {
	// With no measurable change periods the chooser is conservative:
	// the longest interval (fewest relaunches).
	set, err := trace.Generate(trace.GenConfig{
		Seed: 1, Type: market.M1Small,
		Zones: []string{"us-east-1a"}, Start: 0, End: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	view := traceView{set: set, now: 5}
	a := NewAdaptive()
	if iv := a.ChooseInterval(view, lockSpec()); iv != adaptiveMaxMinutes {
		t.Fatalf("chose %d with no history, want max %d", iv, adaptiveMaxMinutes)
	}
}

// TestJupiterFamilyImplementsTheSameExtensions: the replay harness finds
// a strategy's optional extensions by type assertion, so a family member
// that lacks one silently runs without it — as Adaptive once ran deaf to
// faults, and later without failure probes, so the resize gate priced its
// spot members at the on-demand figure. Every registered member must
// implement each extension *Jupiter does.
func TestJupiterFamilyImplementsTheSameExtensions(t *testing.T) {
	extensions := []struct {
		name string
		has  func(strategy.Strategy) bool
	}{
		{"strategy.FailureProber", func(s strategy.Strategy) bool { _, ok := s.(strategy.FailureProber); return ok }},
		{"engine.Observer", func(s strategy.Strategy) bool { _, ok := s.(engine.Observer); return ok }},
		{"modelcache.Consumer", func(s strategy.Strategy) bool { _, ok := s.(modelcache.Consumer); return ok }},
		{"provenance.Consumer", func(s strategy.Strategy) bool { _, ok := s.(provenance.Consumer); return ok }},
	}
	for _, spec := range []string{"jupiter", "jupiter-refine", "jupiter-adaptive"} {
		build, err := strategy.Default.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := build()
		for _, ext := range extensions {
			if !ext.has(s) {
				t.Errorf("%s (%T) does not implement %s", spec, s, ext.name)
			}
		}
	}
}
