package smc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

func benchTrace(b *testing.B, weeks int64) *trace.Trace {
	b.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: 5, Type: market.M1Small,
		Zones: []string{"us-east-1a"},
		Start: 0, End: weeks * 7 * 24 * 60,
	})
	if err != nil {
		b.Fatal(err)
	}
	return set.ByZone["us-east-1a"]
}

func BenchmarkEstimatorObserve13Weeks(b *testing.B) {
	tr := benchTrace(b, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEstimator(0)
		e.Observe(tr)
	}
}

// BenchmarkModelBuild freezes a model two ways: Scratch counts thirteen
// weeks from nothing and freezes once; Slide is the weekly retrain — a
// warm thirteen-week window moves one week on and freezes. The levels=N
// rows train from scratch on 6 000 points of a random N-level trace,
// where each level sees a few dozen departures and most see a sojourn
// past the one-day cap.
func BenchmarkModelBuild(b *testing.B) {
	b.Run("Scratch", func(b *testing.B) {
		tr := benchTrace(b, 13)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := NewEstimator(0)
			e.Observe(tr)
			if _, err := e.Model(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Slide", func(b *testing.B) {
		tr := benchTrace(b, 13+8)
		benchSlides(b, tr, func(w *WindowedEstimator) {
			if _, err := w.Model(); err != nil {
				b.Fatal(err)
			}
		})
	})
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("levels=%d", n), func(b *testing.B) {
			tr := randomTrace(rand.New(rand.NewSource(int64(n))), n, 6000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := NewEstimator(0)
				e.Observe(tr)
				if _, err := e.Model(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSlides times retrain after one-week slides of a thirteen-week
// window over tr, which holds eight of them; each time the trace runs
// out the window is re-seated at its start, untimed.
func benchSlides(b *testing.B, tr *trace.Trace, retrain func(*WindowedEstimator)) {
	const week = 7 * 24 * 60
	var w *WindowedEstimator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		until := int64(13+i%8) * week
		if i%8 == 0 {
			b.StopTimer()
			w = NewWindowedEstimator(0)
			if err := w.Advance(tr, 0, until); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		until += week
		if err := w.Advance(tr, until-13*week, until); err != nil {
			b.Fatal(err)
		}
		retrain(w)
	}
}

func benchModel(b *testing.B) (*Model, market.Money) {
	b.Helper()
	tr := benchTrace(b, 13)
	e := NewEstimator(0)
	e.Observe(tr)
	m, err := e.Model()
	if err != nil {
		b.Fatal(err)
	}
	return m, tr.PriceAt(tr.End - 1)
}

func BenchmarkForecastColdProfiles(b *testing.B) {
	// Includes building the fresh-entry DP tables (the retrain cost).
	tr := benchTrace(b, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEstimator(0)
		e.Observe(tr)
		m, err := e.Model()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Forecast(tr.PriceAt(tr.End-1), 5, 360); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForecastWarm(b *testing.B) {
	m, cur := benchModel(b)
	if _, err := m.Forecast(cur, 5, 360); err != nil {
		b.Fatal(err) // warm the profile cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forecast(cur, int64(1+i%200), 360); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForecastParallel hammers one shared warm model from many
// goroutines — the shared-modelcache sweep shape, where every parallel
// cell forecasts from the same trained model. Run with -cpu 1,4,8 to
// see the cache-hit contention profile.
func BenchmarkForecastParallel(b *testing.B) {
	m, cur := benchModel(b)
	if _, err := m.Forecast(cur, 5, 360); err != nil {
		b.Fatal(err) // warm the profile cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		age := int64(1)
		for pb.Next() {
			if _, err := m.Forecast(cur, age, 360); err != nil {
				b.Fatal(err)
			}
			age = age%200 + 1
		}
	})
}

func BenchmarkStationary(b *testing.B) {
	m, _ := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Stationary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimalBid(b *testing.B) {
	m, cur := benchModel(b)
	f, err := m.Forecast(cur, 5, 360)
	if err != nil {
		b.Fatal(err)
	}
	od, err := market.OnDemandPrice("us-east-1a", market.M1Small)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MinimalBid(0.02, 0.01, od)
	}
}

// BenchmarkForecastAfterSlide is the retrain minute of the bidding
// framework: a thirteen-week window slides one week forward, the counts
// freeze into a model, and the first forecast builds the fresh-entry
// profiles.
func BenchmarkForecastAfterSlide(b *testing.B) {
	tr := benchTrace(b, 13+8)
	cur := tr.PriceAt(tr.End - 1)
	benchSlides(b, tr, func(w *WindowedEstimator) {
		m, err := w.Model()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Forecast(cur, 5, 360); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkForecastFreshBuild is the fresh-profile build alone, per row
// width: the model and its sojourn tables are fixed, and the published
// profiles are dropped before each build. hops/row is the mean number
// of live hops a row of the DP adds, the length of each cell's chain of
// adds.
func BenchmarkForecastFreshBuild(b *testing.B) {
	for _, n := range []int{4, 5, 6, 7, 8, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := NewEstimator(0)
			e.Observe(randomTrace(rand.New(rand.NewSource(int64(n))), n, 80*n))
			m, err := e.Model()
			if err != nil {
				b.Fatal(err)
			}
			if len(m.prices) != n {
				b.Fatalf("%d states, want %d", len(m.prices), n)
			}
			m.fresh(360)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.profiles.Store(nil)
				m.fresh(360)
			}
			b.ReportMetric(liveHopsPerRow(m, 360), "hops/row")
		})
	}
}

// liveHopsPerRow is the mean number of hops a row of the build over
// horizon minutes adds: a hop of sojourn d is live in minutes d to
// horizon-1 of each state's rows.
func liveHopsPerRow(m *Model, horizon int64) float64 {
	var live int64
	for i := range m.soj {
		sd := &m.soj[i]
		for x, d := range sd.durations {
			if d >= horizon {
				break
			}
			live += int64(len(sd.dests(x))) * (horizon - d)
		}
	}
	return float64(live) / float64(int64(len(m.soj))*horizon)
}
