package trace

import (
	"testing"

	"repro/internal/market"
	"repro/internal/stats"
)

func benchZoneTrace(b *testing.B, weeks int64) *Trace {
	b.Helper()
	m, err := ZoneModelFor("us-east-1a", market.M1Small, 1)
	if err != nil {
		b.Fatal(err)
	}
	return m.Generate(stats.NewRNG(1), 0, weeks*week)
}

func BenchmarkGenerateZoneWeek(b *testing.B) {
	m, err := ZoneModelFor("us-east-1a", market.M1Small, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Generate(stats.NewRNG(uint64(i)), 0, week)
	}
}

func BenchmarkPriceAt(b *testing.B) {
	tr := benchZoneTrace(b, 13)
	span := tr.End - tr.Start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.PriceAt(tr.Start + int64(i)%span)
	}
}

func BenchmarkAgeAt(b *testing.B) {
	tr := benchZoneTrace(b, 13)
	span := tr.End - tr.Start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AgeAt(tr.Start + int64(i)%span)
	}
}

func BenchmarkWindowDay(b *testing.B) {
	tr := benchZoneTrace(b, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := tr.Start + int64(i)%(tr.End-tr.Start-24*60)
		tr.Window(lo, lo+24*60)
	}
}

func BenchmarkSojourns(b *testing.B) {
	tr := benchZoneTrace(b, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Sojourns()
	}
}

// BenchmarkGenerate measures Generate on the 68-pool market (17 zones
// × 4 types) over the paper's 24 weeks.
func BenchmarkGenerate(b *testing.B) {
	cfg := GenConfig{
		Seed: 2014, Type: market.M1Small, Zones: market.ExperimentZones(), Start: 0, End: 24 * week,
		Types: []market.InstanceType{market.M1Medium, market.C3Large, market.R3Large},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
