package core

import (
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// benchView builds the standard 13-week, 17-zone market view used by
// the Decide-path benchmarks.
func benchView(b *testing.B, seed uint64) traceView {
	b.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: seed, Type: market.M1Small,
		Zones: market.ExperimentZones(),
		Start: 0, End: 13 * week,
	})
	if err != nil {
		b.Fatal(err)
	}
	return traceView{set: set, now: 13*week - 1}
}

// BenchmarkDecide measures the warm decision path — models trained,
// fresh-profile DP built — which is what every bidding interval of a
// Figures 6-9 sweep pays: per-zone forecasts, the per-n candidate
// loop, and the greedy selection.
func BenchmarkDecide(b *testing.B) {
	view := benchView(b, 42)
	j := New()
	if _, err := j.Decide(view, lockSpec(), 3*60); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Decide(view, lockSpec(), 3*60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecidePools68 measures the capacity-weighted planner on the
// benchmark's 68-pool market. Cold is what every replay pays once — a
// fresh framework's first Decide: training, cold forecasts and an empty
// fit memo. Warm is the steady state after nine Decides: forecasts
// against trained models and rebids answered from the memo. Day is what
// one replay of the repo's benchmark (jupiter_pools68) pays in Decide: a
// fresh framework's nine consecutive 3 h Decides, the memo filling and
// its bisections resuming as the forecasts move.
func BenchmarkDecidePools68(b *testing.B) {
	set := benchPoolSet(b)
	spec := lockSpec()
	b.Run("Cold", func(b *testing.B) {
		view := traceView{set: set, now: 6 * week}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New().Decide(view, spec, 3*60); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Day", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := New()
			for d := int64(0); d < 9; d++ {
				view := traceView{set: set, now: 6*week + d*3*60}
				if _, err := j.Decide(view, spec, 3*60); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("Warm", func(b *testing.B) {
		j := New()
		var view traceView
		for d := int64(0); d < 9; d++ {
			view = traceView{set: set, now: 6*week + d*3*60}
			if _, err := j.Decide(view, spec, 3*60); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := j.Decide(view, spec, 3*60); err != nil {
				b.Fatal(err)
			}
		}
	})
}
