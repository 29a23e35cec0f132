package replay

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/provenance"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func benchSet(b *testing.B) *trace.Set {
	b.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: 3, Type: market.M1Small,
		Zones: market.ExperimentZones(),
		Start: 0, End: 7 * week,
	})
	if err != nil {
		b.Fatal(err)
	}
	return set
}

func benchReplay(b *testing.B, strat func() strategy.Strategy) {
	b.Helper()
	set := benchSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{
			Traces: set, Start: 6 * week,
			Spec:            lockSpec(),
			Strategy:        strat(),
			IntervalMinutes: 60, Seed: uint64(i),
			InjectHardwareFailures: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayWeekBaseline measures a one-week on-demand replay.
func BenchmarkReplayWeekBaseline(b *testing.B) {
	benchReplay(b, func() strategy.Strategy { return strategy.OnDemand{} })
}

// BenchmarkReplayWeekExtra measures a one-week Extra(0, 0.2) replay.
func BenchmarkReplayWeekExtra(b *testing.B) {
	benchReplay(b, func() strategy.Strategy { return strategy.Extra{ExtraNodes: 0, Portion: 0.2} })
}

// BenchmarkReplayWeekJupiter measures a one-week Jupiter replay,
// including model training from six weeks of history.
func BenchmarkReplayWeekJupiter(b *testing.B) {
	benchReplay(b, func() strategy.Strategy { return core.New() })
}

// BenchmarkReplayKernel compares the discrete-event replay kernel
// against the minute-polling oracle on the paper's 11-week
// lock-service replay (the Figures 6/7 workload: 13 training weeks,
// 11 accounted weeks). The headline metric is simulated minutes per
// second of wall clock.
func BenchmarkReplayKernel(b *testing.B) {
	set := genTraces(b, 2014, 11, market.M1Small)
	for _, k := range kernels {
		// Injected is the paper workload: the FP'=0.01 failure model's
		// per-minute Bernoulli draws are part of the semantics, so even
		// the event kernel steps draw-eligible minutes individually.
		// Clean shows the pure jump advantage on a failure-free market.
		for _, inject := range []struct {
			name string
			on   bool
		}{{"Injected", true}, {"Clean", false}} {
			b.Run(k.name+"/"+inject.name, func(b *testing.B) {
				var minutes int64
				for i := 0; i < b.N; i++ {
					res, err := k.run(Config{
						Traces: set, Start: 13 * week,
						Spec:            lockSpec(),
						Strategy:        strategy.Extra{ExtraNodes: 2, Portion: 0.2},
						IntervalMinutes: 3 * 60, Seed: 2014,
						InjectHardwareFailures: inject.on,
					})
					if err != nil {
						b.Fatal(err)
					}
					minutes += res.TotalMinutes
				}
				b.ReportMetric(float64(minutes)/b.Elapsed().Seconds(), "sim-min/s")
			})
		}
	}
}

// BenchmarkReplayObservers pins the telemetry cost model: None is the
// pay-nothing baseline (no observer attached — the event hot path must
// not regress relative to the pre-telemetry kernel), Collector adds
// metric aggregation, Trace adds JSONL encoding, Provenance adds
// decision-span recording plus the attribution ledger.
func BenchmarkReplayObservers(b *testing.B) {
	set := benchSet(b)
	run := func(b *testing.B, observers func(b *testing.B) []engine.Observer, spans func(b *testing.B) *provenance.Recorder) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var rec *provenance.Recorder
			if spans != nil {
				rec = spans(b)
			}
			_, err := Run(Config{
				Traces: set, Start: 6 * week,
				Spec:            lockSpec(),
				Strategy:        core.New(),
				IntervalMinutes: 60, Seed: uint64(i),
				InjectHardwareFailures: true,
				Observers:              observers(b),
				Spans:                  rec,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("None", func(b *testing.B) {
		run(b, func(b *testing.B) []engine.Observer { return nil }, nil)
	})
	b.Run("Collector", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		run(b, func(b *testing.B) []engine.Observer {
			c := telemetry.NewCollector(reg, telemetry.Labels{
				Service: "lock", Strategy: "Jupiter", Interval: "1h",
			})
			return []engine.Observer{c}
		}, nil)
	})
	b.Run("Trace", func(b *testing.B) {
		run(b, func(b *testing.B) []engine.Observer {
			tw, err := telemetry.NewTraceWriter(io.Discard, nil)
			if err != nil {
				b.Fatal(err)
			}
			return []engine.Observer{tw}
		}, nil)
	})
	b.Run("Provenance", func(b *testing.B) {
		var led *provenance.Ledger
		run(b, func(b *testing.B) []engine.Observer {
			return []engine.Observer{led}
		}, func(b *testing.B) *provenance.Recorder {
			led = provenance.NewLedger()
			return provenance.NewRecorder(1)
		})
	})
}
