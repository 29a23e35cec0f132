package market

import (
	"testing"
	"testing/quick"
)

func constPrice(m Money) PriceFunc {
	return func(int64) Money { return m }
}

func TestSpotChargeWholeHours(t *testing.T) {
	p := constPrice(FromDollars(0.01))
	// Exactly 3 hours, cause irrelevant for whole hours.
	got := SpotCharge(p, 0, 180, TerminatedByProvider)
	if got != FromDollars(0.03) {
		t.Fatalf("3h charge = %v, want $0.03", got)
	}
	got = SpotCharge(p, 0, 180, TerminatedByUser)
	if got != FromDollars(0.03) {
		t.Fatalf("3h user charge = %v, want $0.03", got)
	}
}

func TestSpotChargeProviderPartialHourFree(t *testing.T) {
	p := constPrice(FromDollars(0.01))
	// 2.5 hours, out-of-bid: only the 2 whole hours are charged.
	got := SpotCharge(p, 0, 150, TerminatedByProvider)
	if got != FromDollars(0.02) {
		t.Fatalf("provider-terminated 2.5h = %v, want $0.02", got)
	}
	// Instance killed within first hour costs nothing.
	got = SpotCharge(p, 0, 59, TerminatedByProvider)
	if got != 0 {
		t.Fatalf("provider-terminated 59min = %v, want $0", got)
	}
}

func TestSpotChargeUserPartialHourPaid(t *testing.T) {
	p := constPrice(FromDollars(0.01))
	got := SpotCharge(p, 0, 150, TerminatedByUser)
	if got != FromDollars(0.03) {
		t.Fatalf("user-terminated 2.5h = %v, want $0.03", got)
	}
	got = SpotCharge(p, 0, 1, TerminatedByUser)
	if got != FromDollars(0.01) {
		t.Fatalf("user-terminated 1min = %v, want $0.01", got)
	}
}

func TestSpotChargeUsesLastPriceOfHour(t *testing.T) {
	// Price jumps at minute 30: first half $0.01, second half $0.05.
	p := func(min int64) Money {
		if min < 30 {
			return FromDollars(0.01)
		}
		return FromDollars(0.05)
	}
	// One whole hour: charged at the price in effect at minute 59.
	got := SpotCharge(p, 0, 60, TerminatedByUser)
	if got != FromDollars(0.05) {
		t.Fatalf("hour charge = %v, want last price $0.05", got)
	}
}

func TestSpotChargeNonZeroStart(t *testing.T) {
	// Billing hours are anchored at the instance start, not wall-clock.
	var asked []int64
	p := func(min int64) Money {
		asked = append(asked, min)
		return FromDollars(0.01)
	}
	got := SpotCharge(p, 100, 220, TerminatedByProvider)
	if got != FromDollars(0.02) {
		t.Fatalf("charge = %v, want $0.02", got)
	}
	if len(asked) != 2 || asked[0] != 159 || asked[1] != 219 {
		t.Fatalf("charged at minutes %v, want [159 219]", asked)
	}
}

func TestSpotChargeEmpty(t *testing.T) {
	if got := SpotCharge(constPrice(Dollar), 10, 10, TerminatedByUser); got != 0 {
		t.Fatalf("zero-length run charged %v", got)
	}
}

func TestSpotChargePanicsOnNegativeSpan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("start > end did not panic")
		}
	}()
	SpotCharge(constPrice(0), 5, 4, TerminatedByUser)
}

func TestOnDemandCharge(t *testing.T) {
	hourly := FromDollars(0.044)
	cases := []struct {
		start, end int64
		hours      Money
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 60, 1},
		{0, 61, 2},
		{0, 120, 2},
		{30, 90, 1},
	}
	for _, c := range cases {
		got := OnDemandCharge(hourly, c.start, c.end)
		if got != hourly*c.hours {
			t.Errorf("OnDemandCharge(%d,%d) = %v, want %v", c.start, c.end, got, hourly*c.hours)
		}
	}
}

// Property: a provider-terminated run never costs more than a
// user-terminated run of the same span, and spot charges are bounded by
// price ceiling × started hours.
func TestSpotChargeProperties(t *testing.T) {
	f := func(startRaw, lenRaw uint16, priceRaw uint32) bool {
		start := int64(startRaw)
		end := start + int64(lenRaw%5000)
		price := Money(priceRaw % 1_000_000)
		p := constPrice(price)
		prov := SpotCharge(p, start, end, TerminatedByProvider)
		user := SpotCharge(p, start, end, TerminatedByUser)
		if prov > user {
			return false
		}
		startedHours := (end - start + MinutesPerHour - 1) / MinutesPerHour
		if user > price*Money(startedHours) {
			return false
		}
		wholeHours := (end - start) / MinutesPerHour
		return prov == price*Money(wholeHours)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
