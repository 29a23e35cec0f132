package repro

// One benchmark per paper artifact (DESIGN.md §3): each regenerates a
// scaled-down version of the table or figure and reports its headline
// metric via b.ReportMetric, so `go test -bench=.` doubles as a smoke
// reproduction of the whole evaluation.

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/quorum"
	"repro/internal/trace"
)

func quickEnv() experiments.Env { return experiments.QuickEnv() }

// BenchmarkTable1Catalog regenerates Table 1.
func BenchmarkTable1Catalog(b *testing.B) {
	zones := 0
	for i := 0; i < b.N; i++ {
		zones = 0
		for _, r := range experiments.Table1() {
			zones += len(r.Zones)
		}
	}
	b.ReportMetric(float64(zones), "zones")
}

// BenchmarkFig1TraceGen regenerates the Figure 1 price sample.
func BenchmarkFig1TraceGen(b *testing.B) {
	env := quickEnv()
	points := 0
	for i := 0; i < b.N; i++ {
		tr, err := env.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		points = len(tr.Points)
	}
	b.ReportMetric(float64(points), "price-points")
}

// BenchmarkFig4FailureModel regenerates the Figure 4 micro-benchmark.
func BenchmarkFig4FailureModel(b *testing.B) {
	env := quickEnv()
	worst := 0.0
	for i := 0; i < b.N; i++ {
		rows, err := env.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.Measured > worst {
				worst = r.Measured
			}
		}
	}
	b.ReportMetric(worst, "worst-measured-FP")
}

// BenchmarkFig5OneWeek regenerates the Figure 5 one-week cost bars.
func BenchmarkFig5OneWeek(b *testing.B) {
	env := quickEnv()
	var jupiterLock float64
	for i := 0; i < b.N; i++ {
		rows, err := env.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Service == "lock" && r.Strategy == "Jupiter" {
				jupiterLock = r.Cost.Dollars()
			}
		}
	}
	b.ReportMetric(jupiterLock, "jupiter-lock-$")
}

// sweepBench runs a scaled sweep and reports one metric.
func sweepBench(b *testing.B, storageService bool, metric func([]experiments.SweepRow) float64, unit string) {
	b.Helper()
	env := quickEnv()
	var v float64
	for i := 0; i < b.N; i++ {
		var rows []experiments.SweepRow
		var err error
		if storageService {
			rows, err = env.Sweep(experiments.StorageSpec(), "storage")
		} else {
			rows, err = env.Fig6and7()
		}
		if err != nil {
			b.Fatal(err)
		}
		v = metric(rows)
	}
	b.ReportMetric(v, unit)
}

func pick(rows []experiments.SweepRow, strat string, hours int64) experiments.SweepRow {
	for _, r := range rows {
		if r.Strategy == strat && r.IntervalHours == hours {
			return r
		}
	}
	return experiments.SweepRow{}
}

// BenchmarkFig6LockCost regenerates the lock-service cost matrix.
func BenchmarkFig6LockCost(b *testing.B) {
	sweepBench(b, false, func(rows []experiments.SweepRow) float64 {
		return pick(rows, "Jupiter", 6).Cost.Dollars()
	}, "jupiter-6h-$")
}

// BenchmarkFig7LockAvail regenerates the lock-service availability
// matrix.
func BenchmarkFig7LockAvail(b *testing.B) {
	sweepBench(b, false, func(rows []experiments.SweepRow) float64 {
		return pick(rows, "Jupiter", 6).Availability
	}, "jupiter-6h-avail")
}

// BenchmarkFig8StorageCost regenerates the storage-service cost matrix.
func BenchmarkFig8StorageCost(b *testing.B) {
	sweepBench(b, true, func(rows []experiments.SweepRow) float64 {
		return pick(rows, "Jupiter", 6).Cost.Dollars()
	}, "jupiter-6h-$")
}

// BenchmarkFig9StorageAvail regenerates the storage-service
// availability matrix.
func BenchmarkFig9StorageAvail(b *testing.B) {
	sweepBench(b, true, func(rows []experiments.SweepRow) float64 {
		return pick(rows, "Jupiter", 6).Availability
	}, "jupiter-6h-avail")
}

// BenchmarkHeadlineReduction regenerates the headline cost-reduction
// number for the lock service.
func BenchmarkHeadlineReduction(b *testing.B) {
	env := quickEnv()
	var reduction float64
	for i := 0; i < b.N; i++ {
		rows, err := env.Fig6and7()
		if err != nil {
			b.Fatal(err)
		}
		h, err := experiments.HeadlineFrom(rows, "lock", experiments.LockSpec().TargetAvailability())
		if err != nil {
			b.Fatal(err)
		}
		reduction = h.ReductionPercent
	}
	b.ReportMetric(reduction, "reduction-%")
}

// BenchmarkExample3Quorum regenerates the §3 worked example's exact
// availability arithmetic.
func BenchmarkExample3Quorum(b *testing.B) {
	var avail float64
	for i := 0; i < b.N; i++ {
		avail = quorum.AvailabilityEqual(5, 3, market.OnDemandFailureProbability)
	}
	b.ReportMetric(quorum.DowntimeSeconds(avail, quorum.SecondsPerMonth), "downtime-s/month")
}

// BenchmarkAblationEstimators compares Jupiter's interval forecaster
// against the stationary and one-step variants (DESIGN.md §6).
func BenchmarkAblationEstimators(b *testing.B) {
	env := quickEnv()
	var gap float64
	for i := 0; i < b.N; i++ {
		rows, err := env.AblationEstimators()
		if err != nil {
			b.Fatal(err)
		}
		// Availability advantage of the interval mode over one-step.
		var interval, oneStep float64
		for _, r := range rows {
			switch r.Mode {
			case "interval":
				interval = r.Availability
			case "one-step":
				oneStep = r.Availability
			}
		}
		gap = interval - oneStep
	}
	b.ReportMetric(gap, "avail-gap")
}

// BenchmarkTraceGeneration measures the synthetic market generator
// across all 17 experiment zones for one week.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := trace.Generate(trace.GenConfig{
			Seed: uint64(i), Type: market.M1Small,
			Zones: market.ExperimentZones(),
			Start: 0, End: experiments.Week,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJupiterTrain measures training the framework's per-zone
// semi-Markov models on the paper-scale 13-week history across all 17
// experiment zones, through the model provider Jupiter trains with.
// Scratch pays full estimation every iteration (a fresh provider each
// time); Cached reuses one provider, so after the first iteration every
// model is served from memory — the gap is what the shared provider
// saves each time a sweep cell would retrain. The headline metric is
// simulated training-window minutes per wall second.
func BenchmarkJupiterTrain(b *testing.B) {
	env := experiments.DefaultEnv()
	set, err := trace.Generate(trace.GenConfig{
		Seed: env.Seed, Type: market.M1Small,
		Zones: market.ExperimentZones(),
		Start: 0, End: env.TrainWeeks * experiments.Week,
	})
	if err != nil {
		b.Fatal(err)
	}
	fp := set.Fingerprint()
	span := set.End - set.Start
	zones := int64(len(set.Zones()))
	run := func(b *testing.B, provider func() *modelcache.Cache) {
		b.Helper()
		var minutes int64
		for i := 0; i < b.N; i++ {
			models := provider()
			for zone, tr := range set.ByZone {
				key := modelcache.Key{Trace: fp, Zone: zone, From: set.Start, Until: set.End}
				if _, _, err := models.Get(key, func() (*trace.Trace, error) { return tr, nil }); err != nil {
					b.Fatal(err)
				}
			}
			minutes += span * zones
		}
		b.ReportMetric(float64(minutes)/b.Elapsed().Seconds(), "sim-min/s")
	}
	b.Run("Scratch", func(b *testing.B) {
		run(b, modelcache.New)
	})
	b.Run("Cached", func(b *testing.B) {
		shared := modelcache.New()
		run(b, func() *modelcache.Cache { return shared })
	})
}
