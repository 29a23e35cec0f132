package chaos

import (
	"reflect"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// spikeReference is the oracle of the price-spike transform, one
// injector at a time: it scales a trace's price by factor over [from,
// until), clamped to the trace span, by sorting the change points and
// window edges and reading PriceAt at each. Applied once per injector,
// in scenario order, it gives the points TransformTraces must produce
// byte for byte.
func spikeReference(tr *trace.Trace, from, until int64, factor float64) *trace.Trace {
	if from < tr.Start {
		from = tr.Start
	}
	if until > tr.End {
		until = tr.End
	}
	if from >= until || factor == 1 {
		return tr
	}
	// Breakpoints: the original change points plus the window edges.
	minutes := make([]int64, 0, len(tr.Points)+2)
	for _, pt := range tr.Points {
		minutes = append(minutes, pt.Minute)
	}
	for _, m := range []int64{from, until} {
		if m > tr.Start && m < tr.End {
			minutes = append(minutes, m)
		}
	}
	sortInt64(minutes)
	out := &trace.Trace{Zone: tr.Zone, Type: tr.Type, Start: tr.Start, End: tr.End}
	var prev int64 = -1
	for _, m := range minutes {
		if m == prev {
			continue
		}
		prev = m
		price := tr.PriceAt(m)
		if m >= from && m < until {
			price = price.Scale(factor)
		}
		if n := len(out.Points); n > 0 && out.Points[n-1].Price == price {
			continue
		}
		out.Points = append(out.Points, trace.PricePoint{Minute: m, Price: price})
	}
	return out
}

func sortInt64(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// checkSpikes transforms set under the price-spike injectors (windows
// relative to start) and compares every pool with the reference
// composition: the same points, and the input *Trace itself exactly
// where the reference changed nothing — every pool no injector covers
// among them.
func checkSpikes(t *testing.T, set *trace.Set, start int64, injs []Injector) {
	t.Helper()
	e, err := New(Scenario{Name: "spikes", Injectors: injs}, 0, start)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.TransformTraces(set)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Zones(), set.Zones()) {
		t.Fatalf("pool keys %v, want %v", out.Zones(), set.Zones())
	}
	for _, key := range set.Zones() {
		orig := set.ByZone[key]
		want, covered := orig, false
		for _, inj := range injs {
			if inj.covers(key) {
				covered = true
				want = spikeReference(want, start+inj.From, start+inj.Until, inj.Factor)
			}
		}
		got := out.ByZone[key]
		if (got == orig) != (want == orig) || (!covered && got != orig) {
			t.Fatalf("pool %s: kept input %v, reference kept it %v (covered %v)", key, got == orig, want == orig, covered)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pool %s under %+v:\n got %+v\nwant %+v", key, injs, got.Points, want.Points)
		}
	}
}

// spikeSet is a two-zone, two-type pool market over [start, end) whose
// every pool has the given change points, shifted per pool.
func spikeSet(t *testing.T, start, end int64, pts []trace.PricePoint) *trace.Set {
	t.Helper()
	set := trace.NewSet(market.M1Small, start, end)
	k := int64(0)
	for _, zone := range []string{"us-east-1a", "us-west-2b"} {
		for _, it := range []market.InstanceType{market.M1Small, market.M1Medium} {
			tr := &trace.Trace{Zone: zone, Type: it, Start: start, End: end}
			for _, p := range pts {
				tr.Points = append(tr.Points, trace.PricePoint{Minute: p.Minute, Price: p.Price + market.Money(k)})
			}
			if err := set.AddPool(tr); err != nil {
				t.Fatal(err)
			}
			k += 1000
		}
	}
	return set
}

// TestSpikeMatchesReference walks the window shapes one by one: each
// straddling an edge of the span, outside it, factor 1, overlapping,
// edges on change minutes, and zoned covers of typed pools.
func TestSpikeMatchesReference(t *testing.T) {
	p := func(m int64, d float64) trace.PricePoint {
		return trace.PricePoint{Minute: m, Price: market.FromDollars(d)}
	}
	// Equal neighbours at 1100/1200 are merged by any non-trivial spike.
	set := spikeSet(t, 1000, 2000, []trace.PricePoint{p(1000, 0.008), p(1100, 0.008), p(1200, 0.012), p(1500, 0.0091), p(1900, 0.008)})
	const start = 900 // relative minute r is absolute 900 + r
	spike := func(zone string, from, until int64, f float64) Injector {
		return Injector{Kind: PriceSpike, Zone: zone, From: from - start, Until: until - start, Factor: f}
	}
	cases := map[string][]Injector{
		"straddles start":     {spike("", 900, 1150, 3)},
		"straddles end":       {spike("", 1700, 2500, 2)},
		"covers the span":     {spike("", 900, 2100, 1.5)},
		"after the span":      {spike("", 2000, 2300, 3)},
		"factor 1":            {spike("", 1100, 1300, 1)},
		"edges on changes":    {spike("", 1200, 1500, 4)},
		"overlapping":         {spike("", 1150, 1600, 2), spike("", 1300, 1900, 0.5), spike("", 1300, 1900, 3)},
		"undoes itself":       {spike("", 1300, 1400, 2), spike("", 1300, 1400, 0.5)},
		"zoned":               {spike("us-west-2b", 1250, 1450, 5)},
		"zoned and fleet":     {spike("us-east-1a", 1250, 1450, 5), spike("", 1400, 1950, 1.25)},
		"zoned trivial":       {spike("us-east-1a", 1250, 1450, 1), spike("us-west-2b", 2100, 2200, 6)},
		"single-minute edges": {spike("", 1000, 1001, 7), spike("", 1999, 2000, 7)},
	}
	for name, injs := range cases {
		t.Run(name, func(t *testing.T) { checkSpikes(t, set, start, injs) })
	}
}

// FuzzTransformTraces pins the one-pass spike against the reference
// composition on random traces under one to four random injectors whose
// windows straddle the span's edges, miss it, overlap, sit on change
// minutes, carry factor 1, and cover the fleet or one zone's typed
// pools.
func FuzzTransformTraces(f *testing.F) {
	f.Add([]byte{7, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{200, 9, 1, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{40, 12, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int64(b)
		}
		const start = 1000
		end := start + 1 + next()*2
		pts := []trace.PricePoint{{Minute: start, Price: market.Money(8000 + 1000*(next()%4))}}
		for n := next() % 12; n > 0; n-- {
			m := pts[len(pts)-1].Minute + 1 + next()%40
			if m >= end {
				break
			}
			// Few distinct prices, so equal neighbours occur.
			pts = append(pts, trace.PricePoint{Minute: m, Price: market.Money(8000 + 1000*(next()%4))})
		}
		set := spikeSet(t, start, end, pts)
		// minute draws an absolute minute: a change point, an edge of
		// the span, or anywhere from before Start to past End.
		minute := func() int64 {
			switch v := next(); v % 4 {
			case 0:
				return pts[int(v/4)%len(pts)].Minute
			case 1:
				return []int64{start, end}[v/4%2]
			default:
				return start - 60 + v/4*(end-start+120)/64
			}
		}
		factors := []float64{1, 0.5, 2, 3, 1.37, 10}
		zones := []string{"", "", "us-east-1a", "us-west-2b"}
		var injs []Injector
		for n := 1 + next()%4; n > 0; n-- {
			from, until := minute(), minute()
			if until < from {
				from, until = until, from
			}
			if until == from {
				until++
			}
			// The engine starts 100 minutes before the span, so every
			// window is relative minute >= 0.
			from = max(from, start-100)
			until = max(until, from+1)
			injs = append(injs, Injector{Kind: PriceSpike, Zone: zones[next()%4],
				From: from - (start - 100), Until: until - (start - 100), Factor: factors[next()%6]})
		}
		checkSpikes(t, set, start-100, injs)
	})
}
