package core

import (
	"testing"

	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/strategy"
	"repro/internal/trace"
)

const week = int64(7 * 24 * 60)

// candidate is one row of a decision's candidate table — a group size
// the planner priced or rejected — as its candidate span records it.
type candidate struct {
	Nodes     int
	FPTarget  float64
	Feasible  bool
	CostUpper market.Money
}

// traced attaches a fresh recorder to j, tracing every decision.
func traced(j *Jupiter) *Jupiter {
	j.UseRecorder(provenance.NewRecorder(1))
	return j
}

// lastCandidates is the candidate table of the last decision j's
// recorder traced: its candidate spans in enumeration order, the pruned
// size skipped.
func lastCandidates(j *Jupiter) []candidate {
	var out []candidate
	for _, s := range j.prov.Spans() {
		if s.Decision == j.prov.Decisions() && s.Kind == provenance.SpanCandidate && s.Outcome != "pruned" {
			out = append(out, candidate{s.Nodes, s.FPTarget, s.Outcome == "feasible", market.Money(s.CostMicroUSD)})
		}
	}
	return out
}

// traceView serves a generated trace set as a market view positioned at
// a given minute.
type traceView struct {
	set *trace.Set
	now int64
}

func (v traceView) Now() int64      { return v.now }
func (v traceView) Zones() []string { return v.set.Zones() }
func (v traceView) SpotPrice(zone string) (market.Money, error) {
	return v.set.ByZone[zone].PriceAt(v.now), nil
}
func (v traceView) SpotPriceAge(zone string) (int64, error) {
	tr := v.set.ByZone[zone]
	cur := tr.PriceAt(v.now)
	age := int64(1)
	for m := v.now - 1; m >= tr.Start; m-- {
		if tr.PriceAt(m) != cur {
			break
		}
		age++
	}
	return age, nil
}
func (v traceView) PriceHistory(zone string, from, to int64) (*trace.Trace, error) {
	tr := v.set.ByZone[zone]
	if from < tr.Start {
		from = tr.Start
	}
	if to > v.now {
		to = v.now
	}
	return tr.Window(from, to), nil
}

func genView(t *testing.T, seed uint64, weeks int64) traceView {
	t.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: seed, Type: market.M1Small,
		Zones: market.ExperimentZones(),
		Start: 0, End: weeks * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	return traceView{set: set, now: weeks*week - 1}
}

func lockSpec() strategy.ServiceSpec {
	return strategy.ServiceSpec{Type: market.M1Small, BaseNodes: 5, DataShards: 1}
}

func TestJupiterDecidesFeasibleBids(t *testing.T) {
	view := genView(t, 42, 13)
	j := New()
	d, err := j.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.OnDemand) > 0 {
		t.Fatalf("fell back to on-demand: %v", d.OnDemand)
	}
	if len(d.Bids) < 5 {
		t.Fatalf("chose %d nodes, want >= 5 for the lock service", len(d.Bids))
	}
	// Every bid is within [current spot, on-demand].
	for _, b := range d.Bids {
		cur, _ := view.SpotPrice(b.Zone)
		od, err := market.OnDemandPrice(b.Zone, market.M1Small)
		if err != nil {
			t.Fatal(err)
		}
		if b.Price < cur {
			t.Errorf("zone %s: bid %v below spot %v", b.Zone, b.Price, cur)
		}
		if b.Price > od {
			t.Errorf("zone %s: bid %v above on-demand %v", b.Zone, b.Price, od)
		}
	}
}

func TestJupiterBidsAreCheap(t *testing.T) {
	// The whole point: the bid sum should be far below 5x on-demand.
	view := genView(t, 42, 13)
	j := New()
	d, err := j.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	var bidSum market.Money
	for _, b := range d.Bids {
		bidSum += b.Price
	}
	od, err := market.OnDemandPrice("us-east-1a", market.M1Small)
	if err != nil {
		t.Fatal(err)
	}
	if bidSum >= od*5/2 {
		t.Fatalf("bid sum %v not clearly below half the on-demand cost %v", bidSum, od*5)
	}
}

// TestJupiterCandidatesEnumerated: the group sizes run contiguously from
// the quorum floor until the constraint-(9) bound cuts the enumeration,
// the cheapest of them is the decision, and exactly one pruned span names
// the first size not priced, with a bound no lower than that decision.
func TestJupiterCandidatesEnumerated(t *testing.T) {
	view := genView(t, 42, 13)
	j := traced(New())
	d, err := j.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	cands := lastCandidates(j)
	if len(cands) == 0 {
		t.Fatal("no group size enumerated")
	}
	for i, c := range cands {
		if c.Nodes != lockSpec().DataShards+i {
			t.Fatalf("row %d is n=%d, want the sizes contiguous from %d: %+v", i, c.Nodes, lockSpec().DataShards, cands)
		}
	}
	if cands[0].Feasible {
		t.Fatal("n=1 should not meet a five-nines-ish target with FP0=0.01")
	}
	var best market.Money = -1
	for _, c := range cands {
		if c.Feasible && (best < 0 || c.CostUpper < best) {
			best = c.CostUpper
		}
	}
	var planned market.Money
	for _, b := range d.Bids {
		planned += b.Price
	}
	if best < 0 || len(d.OnDemand) > 0 || planned != best {
		t.Fatalf("decision %+v plans %v, the cheapest candidate %v", d, planned, best)
	}
	var pruned []provenance.Span
	for _, s := range j.prov.Spans() {
		if s.Kind == provenance.SpanCandidate && s.Outcome == "pruned" {
			pruned = append(pruned, s)
		}
	}
	next := cands[len(cands)-1].Nodes + 1
	if len(pruned) != 1 || pruned[0].Nodes != next || market.Money(pruned[0].CostMicroUSD) < best {
		t.Fatalf("pruned spans %+v, want one at n=%d with a bound of at least %v", pruned, next, best)
	}
	if next > len(market.ExperimentZones()) {
		t.Fatalf("the cut at n=%d is past the %d zones: nothing was pruned", next, len(market.ExperimentZones()))
	}
}

func TestJupiterFPTargetsGrowWithN(t *testing.T) {
	view := genView(t, 42, 13)
	j := traced(New())
	if _, err := j.Decide(view, lockSpec(), 60); err != nil {
		t.Fatal(err)
	}
	// Monotone over odd n (even n wastes a node in a majority quorum,
	// so parity changes can dip).
	var prev float64
	for _, c := range lastCandidates(j) {
		if c.FPTarget == 0 || c.Nodes%2 == 0 {
			continue
		}
		if c.FPTarget < prev {
			t.Fatalf("FP target decreased at n=%d: %v < %v", c.Nodes, c.FPTarget, prev)
		}
		prev = c.FPTarget
	}
}

func TestJupiterStorageSpecUsesLargerQuorum(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 42, Type: market.M3Large,
		Zones: market.ExperimentZones(),
		Start: 0, End: 13 * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	view := traceView{set: set, now: 13*week - 1}
	spec := strategy.ServiceSpec{Type: market.M3Large, BaseNodes: 5, DataShards: 3}
	j := New()
	d, err := j.Decide(view, spec, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bids) < 5 && len(d.OnDemand) == 0 {
		t.Fatalf("storage decision too small: %d bids", len(d.Bids))
	}
}

func TestJupiterLongerIntervalBidsHigher(t *testing.T) {
	// §5.5: "Our bidding framework should make higher bids for a longer
	// bidding interval under availability consideration."
	view := genView(t, 7, 13)
	sum := func(interval int64) market.Money {
		j := New()
		d, err := j.Decide(view, lockSpec(), interval)
		if err != nil {
			t.Fatal(err)
		}
		var s market.Money
		for _, b := range d.Bids {
			s += b.Price
		}
		if len(d.Bids) > 0 {
			return s / market.Money(len(d.Bids))
		}
		return 0
	}
	short := sum(60)
	long := sum(12 * 60)
	if long < short {
		t.Fatalf("mean bid for 12h (%v) below 1h (%v)", long, short)
	}
}

func TestJupiterRejectsBadInterval(t *testing.T) {
	view := genView(t, 42, 13)
	if _, err := New().Decide(view, lockSpec(), 0); err == nil {
		t.Fatal("zero interval accepted")
	}
}

// TestJupiterRetrainBoundary pins the cadence comparison: one minute
// before trainedAt+retrainEvery keeps the old model, the boundary
// minute itself retrains.
func TestJupiterRetrainBoundary(t *testing.T) {
	const cadence = int64(24 * 60)
	view := genView(t, 42, 15)
	start := 13 * week
	view.now = start
	j := New()
	j.retrainEvery = cadence
	if _, err := j.Decide(view, lockSpec(), 60); err != nil {
		t.Fatal(err)
	}
	for z, zm := range j.zoneModels {
		if zm.trainedAt != start {
			t.Fatalf("zone %s trainedAt = %d, want %d", z, zm.trainedAt, start)
		}
	}

	view.now = start + cadence - 1
	if _, err := j.Decide(view, lockSpec(), 60); err != nil {
		t.Fatal(err)
	}
	for z, zm := range j.zoneModels {
		if zm.trainedAt != start {
			t.Fatalf("zone %s retrained one minute early (trainedAt %d)", z, zm.trainedAt)
		}
	}

	view.now = start + cadence
	if _, err := j.Decide(view, lockSpec(), 60); err != nil {
		t.Fatal(err)
	}
	for z, zm := range j.zoneModels {
		if zm.trainedAt != start+cadence {
			t.Fatalf("zone %s did not retrain at the boundary (trainedAt %d, want %d)",
				z, zm.trainedAt, start+cadence)
		}
	}
}

// TestJupiterSharedCacheServesSecondInstance points two frameworks at
// one provider: the second instance's first decision must be served
// entirely from the first's training.
func TestJupiterSharedCacheServesSecondInstance(t *testing.T) {
	cache := modelcache.New()
	view := genView(t, 42, 13)
	j1, j2 := New(), New()
	j1.UseModelCache(cache)
	j2.UseModelCache(cache)

	if _, err := j1.Decide(view, lockSpec(), 60); err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	zones := uint64(len(market.ExperimentZones()))
	if s.Hits != 0 || s.Misses != zones {
		t.Fatalf("after first instance: %d hits, %d misses, want 0/%d", s.Hits, s.Misses, zones)
	}

	if _, err := j2.Decide(view, lockSpec(), 60); err != nil {
		t.Fatal(err)
	}
	s = cache.Stats()
	if s.Hits != zones || s.Misses != zones {
		t.Fatalf("after second instance: %d hits, %d misses, want %d/%d", s.Hits, s.Misses, zones, zones)
	}

	d1, err := j1.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := j2.Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Bids) != len(d2.Bids) {
		t.Fatalf("shared-cache instances disagree: %d vs %d bids", len(d1.Bids), len(d2.Bids))
	}
	for i := range d1.Bids {
		if d1.Bids[i] != d2.Bids[i] {
			t.Fatalf("bid %d differs: %+v vs %+v", i, d1.Bids[i], d2.Bids[i])
		}
	}
}

func TestJupiterFallsBackWithNoHistory(t *testing.T) {
	// A view positioned at minute 1 has no usable history: Jupiter must
	// fall back to on-demand, not fail.
	set, err := trace.Generate(trace.GenConfig{
		Seed: 42, Type: market.M1Small,
		Zones: market.ExperimentZones(),
		Start: 0, End: 2 * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	view := traceView{set: set, now: 1}
	d, err := New().Decide(view, lockSpec(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.OnDemand) != 5 {
		t.Fatalf("fallback chose %d on-demand zones, want 5", len(d.OnDemand))
	}
}
