package market

import "testing"

func BenchmarkSpotChargeWeek(b *testing.B) {
	price := func(min int64) Money {
		if min%120 < 60 {
			return FromDollars(0.008)
		}
		return FromDollars(0.009)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpotCharge(price, 0, 7*24*60, TerminatedByUser)
	}
}

func BenchmarkOnDemandPriceLookup(b *testing.B) {
	zones := AllZones()
	for i := 0; i < b.N; i++ {
		if _, err := OnDemandPrice(zones[i%len(zones)], M1Small); err != nil {
			b.Fatal(err)
		}
	}
}
