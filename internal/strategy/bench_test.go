package strategy_test

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/market"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// BenchmarkExtraDecide68: one Extra(2, 0.2) decision over the 68-pool
// market (the 17 experiment zones × m1.small and three sibling types) —
// the strategy layer of a rival replay, reading prices from the
// provider as a replay does.
func BenchmarkExtraDecide68(b *testing.B) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 2014, Type: market.M1Small,
		Types: []market.InstanceType{market.M1Medium, market.C3Large, market.R3Large},
		Zones: market.ExperimentZones(),
		Start: 0, End: week,
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(set.ByZone) != 68 {
		b.Fatalf("market has %d pools, want 68", len(set.ByZone))
	}
	view := cloud.NewProvider(set, cloud.Config{Seed: 2014})
	view.AdvanceTo(week / 2)
	spec := conformanceSpec()
	extra := strategy.Extra{ExtraNodes: 2, Portion: 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := extra.Decide(view, spec, 3*60)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Bids) == 0 {
			b.Fatal("no bids")
		}
	}
}
