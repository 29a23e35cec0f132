package cloud

import (
	"slices"
	"testing"

	"repro/internal/market"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// The provider is a strategy's market view as is: the replay kernel
// hands it to Decide with no adapter in between.
var _ strategy.MarketView = (*Provider)(nil)

// flatSet builds a single-zone set with a hand-written price staircase.
func flatSet(t *testing.T, pts []trace.PricePoint, end int64) *trace.Set {
	t.Helper()
	s := trace.NewSet(market.M1Small, 0, end)
	tr := &trace.Trace{Zone: "us-east-1a", Type: market.M1Small, Start: 0, End: end, Points: pts}
	if err := s.Add(tr); err != nil {
		t.Fatal(err)
	}
	return s
}

func centsSet(t *testing.T) *trace.Set {
	return flatSet(t, []trace.PricePoint{
		{Minute: 0, Price: market.FromDollars(0.008)},
		{Minute: 120, Price: market.FromDollars(0.012)},
		{Minute: 180, Price: market.FromDollars(0.008)},
	}, 24*60)
}

// TestZonesIsTheCallersOwn: the provider lists its pool keys once and
// hands every caller a copy, sorted; a strategy that reorders or
// truncates its copy changes nobody else's.
func TestZonesIsTheCallersOwn(t *testing.T) {
	s := trace.NewSet(market.M1Small, 0, 60)
	for _, z := range []string{"us-west-2a", "eu-west-1b", "us-east-1a"} {
		tr := &trace.Trace{Zone: z, Type: market.M1Small, Start: 0, End: 60,
			Points: []trace.PricePoint{{Minute: 0, Price: market.FromDollars(0.008)}}}
		if err := s.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	p := NewProvider(s, Config{Seed: 1})
	want := []string{"eu-west-1b", "us-east-1a", "us-west-2a"}
	got := p.Zones()
	if !slices.Equal(got, want) {
		t.Fatalf("Zones() = %v, want %v", got, want)
	}
	got[0], got[2] = "scribbled", got[0]
	_ = append(got[:1], "over")
	if again := p.Zones(); !slices.Equal(again, want) {
		t.Fatalf("Zones() after a caller wrote to its copy = %v, want %v", again, want)
	}
}

func TestRequestSpotLaunchesAfterStartup(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 1})
	id, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.010))
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := p.Instance(id)
	if inst.State != Pending {
		t.Fatalf("state = %v, want pending", inst.State)
	}
	if inst.RunningAt < 4 || inst.RunningAt > 12 {
		t.Fatalf("startup at %d, want 4..12 min (200-700s)", inst.RunningAt)
	}
	p.AdvanceTo(inst.RunningAt)
	if !p.Alive(id) {
		t.Fatal("instance not alive after startup")
	}
}

func TestRequestSpotBelowPriceRejected(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 1})
	if _, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.001)); err == nil {
		t.Fatal("bid below spot accepted")
	}
}

func TestRequestSpotAboveCapRejected(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 1})
	od, _ := market.OnDemandPrice("us-east-1a", market.M1Small)
	if _, err := p.RequestSpot("us-east-1a", market.M1Small, od*5); err == nil {
		t.Fatal("bid above 4x on-demand accepted")
	}
}

func TestRequestSpotWrongTypeOrZone(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 1})
	if _, err := p.RequestSpot("us-east-1a", market.M3Large, market.FromDollars(1)); err == nil {
		t.Fatal("wrong instance type accepted")
	}
	if _, err := p.RequestSpot("nowhere-1x", market.M1Small, market.FromDollars(0.01)); err == nil {
		t.Fatal("unknown zone accepted")
	}
}

func TestOutOfBidTermination(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 1})
	// Bid covers $0.008 but not the $0.012 spike at minute 120.
	id, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.010))
	if err != nil {
		t.Fatal(err)
	}
	p.AdvanceTo(119)
	if !p.Alive(id) {
		t.Fatal("instance should be alive before the spike")
	}
	p.AdvanceTo(120)
	if p.Alive(id) {
		t.Fatal("instance survived out-of-bid price")
	}
	inst, _ := p.Instance(id)
	if inst.State != Terminated || inst.Cause != market.TerminatedByProvider {
		t.Fatalf("state=%v cause=%v", inst.State, inst.Cause)
	}
	if inst.TerminatedAt != 120 {
		t.Fatalf("terminated at %d, want 120", inst.TerminatedAt)
	}
}

func TestOutOfBidPartialHourFree(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 3})
	id, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.010))
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := p.Instance(id)
	p.AdvanceTo(300)
	charge, err := p.Charge(id)
	if err != nil {
		t.Fatal(err)
	}
	// Ran from RunningAt to 120 (out-of-bid). Whole hours at $0.008
	// each; the partial final hour is free.
	hours := (120 - inst.RunningAt) / 60
	want := market.FromDollars(0.008) * market.Money(hours)
	if charge != want {
		t.Fatalf("charge = %v, want %v (%d whole hours)", charge, want, hours)
	}
}

func TestUserTerminationPaysPartialHour(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 4})
	id, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.02))
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := p.Instance(id)
	p.AdvanceTo(inst.RunningAt + 90) // 1.5 hours of runtime
	if err := p.Terminate(id); err != nil {
		t.Fatal(err)
	}
	charge, err := p.Charge(id)
	if err != nil {
		t.Fatal(err)
	}
	// 1 whole hour at $0.008 + partial hour charged at the price in
	// effect at termination.
	tr := centsSet(t).ByZone["us-east-1a"]
	want := tr.PriceAt(inst.RunningAt+59) + tr.PriceAt(inst.RunningAt+89)
	if charge != want {
		t.Fatalf("charge = %v, want %v", charge, want)
	}
}

func TestPendingRequestCancelledWhenPriceLeavesBid(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 5})
	p.AdvanceTo(115)
	id, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.009))
	if err != nil {
		t.Fatal(err)
	}
	// Price jumps to 0.012 at minute 120, before startup completes.
	p.AdvanceTo(130)
	inst, _ := p.Instance(id)
	if inst.State != Terminated {
		t.Fatalf("pending request state = %v, want terminated", inst.State)
	}
	charge, _ := p.Charge(id)
	if charge != 0 {
		t.Fatalf("never-ran instance charged %v", charge)
	}
}

func TestOnDemandChargesEveryStartedHour(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 6})
	id, err := p.RequestOnDemand("us-east-1a", market.M1Small)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := p.Instance(id)
	p.AdvanceTo(inst.RunningAt + 61)
	if err := p.Terminate(id); err != nil {
		t.Fatal(err)
	}
	charge, _ := p.Charge(id)
	od, _ := market.OnDemandPrice("us-east-1a", market.M1Small)
	if charge != od*2 {
		t.Fatalf("charge = %v, want 2 started hours = %v", charge, od*2)
	}
}

func TestOnDemandSurvivesSpikes(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 7})
	id, err := p.RequestOnDemand("us-east-1a", market.M1Small)
	if err != nil {
		t.Fatal(err)
	}
	p.AdvanceTo(150) // through the spike
	if !p.Alive(id) {
		t.Fatal("on-demand instance died with the spot market")
	}
}

func TestSpotPriceAge(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 8})
	p.AdvanceTo(125)
	age, err := p.SpotPriceAge("us-east-1a")
	if err != nil {
		t.Fatal(err)
	}
	if age != 6 { // price changed at 120; minutes 120..125 inclusive
		t.Fatalf("age = %d, want 6", age)
	}
}

// TestPriceHistoryExcludesFuture: both ends of a request land in
// [Start, now], so history stops at now, and a window past now — even
// past the market's end — is the empty history at now, never a panic.
func TestPriceHistoryExcludesFuture(t *testing.T) {
	s := centsSet(t)
	p := NewProvider(s, Config{Seed: 9})
	p.AdvanceTo(100)
	for _, w := range [][4]int64{
		{0, 500, 0, 100},
		{s.End + 5, s.End + 10, 100, 100},
		{150, 200, 100, 100},
		{200, 150, 100, 100},
		{-50, -10, 0, 0},
	} {
		h, err := p.PriceHistory("us-east-1a", w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		if h.Start != w[2] || h.End != w[3] {
			t.Fatalf("PriceHistory(%d, %d) = [%d, %d), want [%d, %d)", w[0], w[1], h.Start, h.End, w[2], w[3])
		}
	}
}

// TestPriceHistoryAllocatesOneHeader: the history is a view of the
// market's points, so a six-week window costs one allocation, as a
// one-hour one does.
func TestPriceHistoryAllocatesOneHeader(t *testing.T) {
	const week = 7 * 24 * 60
	set, err := trace.Generate(trace.GenConfig{Seed: 3, Type: market.M1Small, Zones: []string{"us-east-1a"}, Start: 0, End: 7 * week})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProvider(set, Config{Seed: 9})
	p.AdvanceTo(6*week + 30)
	for _, span := range []int64{60, 6 * week} {
		n := testing.AllocsPerRun(20, func() {
			if _, err := p.PriceHistory("us-east-1a", p.Now()-span, p.Now()); err != nil {
				t.Fatal(err)
			}
		})
		if n != 1 {
			t.Fatalf("a %d-minute history makes %v allocations, want 1", span, n)
		}
	}
}

func TestHardwareFailureInjection(t *testing.T) {
	// With the FP' model enabled, long-run unavailability of an
	// on-demand instance is near 1%.
	set := flatSet(t, []trace.PricePoint{{Minute: 0, Price: market.FromDollars(0.008)}}, 10*7*24*60)
	p := NewProvider(set, Config{Seed: 10, InjectHardwareFailures: true})
	id, err := p.RequestOnDemand("us-east-1a", market.M1Small)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := p.Instance(id)
	p.AdvanceTo(inst.RunningAt)
	down := 0
	total := 0
	for m := inst.RunningAt + 1; m < set.End-1; m++ {
		p.AdvanceTo(m)
		total++
		if !p.Alive(id) {
			down++
		}
	}
	frac := float64(down) / float64(total)
	if frac < 0.002 || frac > 0.03 {
		t.Fatalf("hardware-failure downtime fraction = %v, want ~0.01", frac)
	}
}

func TestAdvanceToGuards(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 11})
	p.AdvanceTo(10)
	for _, bad := range []int64{5, 24 * 60} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AdvanceTo(%d) did not panic", bad)
				}
			}()
			p.AdvanceTo(bad)
		}()
	}
}

func TestLiveInstancesSorted(t *testing.T) {
	p := NewProvider(centsSet(t), Config{Seed: 12})
	for i := 0; i < 3; i++ {
		if _, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.02)); err != nil {
			t.Fatal(err)
		}
	}
	live := p.LiveInstances()
	if len(live) != 3 {
		t.Fatalf("live = %v", live)
	}
	for i := 1; i < len(live); i++ {
		if live[i-1] >= live[i] {
			t.Fatal("live instances not sorted")
		}
	}
}
