package core

// Pins for training inside buildPoolSnapshots' fan-out: what the workers
// may do concurrently (train through the provider, build forecasts) must
// stay invisible — the market view is never entered twice at once, a
// warm provider is never asked for history, and everything ordered
// (events, spans) comes out in pool order.

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/trace"
)

// guardedView fails the test if PriceHistory is entered while another
// call is in flight, counts the calls by how many minutes they asked
// for, and records published events.
// Pools in noHistory have nothing to train on; pools in noPrice fail
// their SpotPrice read.
type guardedView struct {
	traceView
	t         *testing.T
	inFlight  atomic.Bool
	fetches   int
	asked     map[int64]int // to - from of every PriceHistory call
	noHistory map[string]bool
	noPrice   map[string]bool
	events    []engine.Event
}

func (v *guardedView) SpotPrice(zone string) (market.Money, error) {
	if v.noPrice[zone] {
		return 0, errNoPrice
	}
	return v.traceView.SpotPrice(zone)
}

var errNoPrice = errors.New("no price")

func (v *guardedView) PriceHistory(zone string, from, to int64) (*trace.Trace, error) {
	if !v.inFlight.CompareAndSwap(false, true) {
		v.t.Error("PriceHistory entered while another call was in flight")
	}
	defer v.inFlight.Store(false)
	runtime.Gosched() // widen the window an overlapping call would land in
	v.fetches++
	if v.asked == nil {
		v.asked = make(map[int64]int)
	}
	v.asked[to-from]++
	if v.noHistory[zone] {
		return nil, errors.New("no history")
	}
	return v.traceView.PriceHistory(zone, from, to)
}

func (v *guardedView) PublishEvent(e engine.Event) { v.events = append(v.events, e) }

// withProcs runs f at the given GOMAXPROCS. More procs than cores still
// puts that many workers in the fan-out, which is what the pins are
// about.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// nineDecides runs a fresh Jupiter through the benchmark replay's nine
// consecutive 3 h Decides, retraining every 12 h so that both scratch
// and incremental training pass through the fan-out.
func nineDecides(t *testing.T, j *Jupiter, view *guardedView) {
	t.Helper()
	j.retrainEvery = 12 * 60
	for d := int64(0); d < 9; d++ {
		view.now = 6*week + d*180
		if _, err := j.Decide(view, lockSpec(), 180); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTrainingFanOutNeverOverlapsHistoryFetches: eight workers training
// 68 pools, and the view sees one PriceHistory call at a time — exactly
// one per provider miss, for the whole training window when the pool's
// series starts and for the twelve hours since the last retrain when it
// continues.
func TestTrainingFanOutNeverOverlapsHistoryFetches(t *testing.T) {
	view := &guardedView{traceView: traceView{set: benchPoolSet(t)}, t: t}
	j := New()
	withProcs(8, func() { nineDecides(t, j, view) })
	st := j.provider().Stats()
	if st.Misses == 0 || st.IncrementalTrains == 0 {
		t.Fatalf("no training ran through the fan-out: %v", st)
	}
	if uint64(view.fetches) != st.Misses {
		t.Fatalf("%d history fetches for %d provider misses", view.fetches, st.Misses)
	}
	if whole, suffix := view.asked[trainingWindow], view.asked[j.retrainEvery]; uint64(whole) != st.ScratchTrains || uint64(suffix) != st.IncrementalTrains {
		t.Fatalf("%d whole-window and %d twelve-hour fetches (by minutes asked: %v) for %d scratch and %d incremental trains",
			whole, suffix, view.asked, st.ScratchTrains, st.IncrementalTrains)
	}
}

// TestWarmProviderFetchesNoHistory: a sweep cell whose models another
// cell already trained performs no PriceHistory call at all.
func TestWarmProviderFetchesNoHistory(t *testing.T) {
	set := benchPoolSet(t)
	shared := modelcache.New()
	first := &guardedView{traceView: traceView{set: set}, t: t}
	a := New()
	a.UseModelCache(shared)
	withProcs(8, func() { nineDecides(t, a, first) })
	if first.fetches == 0 {
		t.Fatal("the first cell trained nothing")
	}
	second := &guardedView{traceView: traceView{set: set}, t: t}
	b := New()
	b.UseModelCache(shared)
	withProcs(8, func() { nineDecides(t, b, second) })
	if second.fetches != 0 {
		t.Fatalf("%d history fetches against a warm provider", second.fetches)
	}
	if len(second.events) != 0 {
		t.Fatalf("%d training events published for provider hits", len(second.events))
	}
}

// TestTrainingFanOutOrderIsPoolOrder: the KindModelTrained sequence, the
// provider's counters and the span stream do not depend on how many
// workers train. One pool has no history and one zone is quarantined —
// listed after it — so the skip spans' position is pinned too: skipped
// pools first, in pool order, then the build outcomes.
func TestTrainingFanOutOrderIsPoolOrder(t *testing.T) {
	set := benchPoolSet(t)
	pools := set.Zones()
	orphan, sick := pools[3], pools[len(pools)-1]
	type trained struct {
		pool   string
		minute int64
		size   int
	}
	type outcome struct {
		events []trained
		stats  modelcache.Stats
		spans  []provenance.Span
	}
	run := func(procs int) outcome {
		view := &guardedView{traceView: traceView{set: set}, t: t, noHistory: map[string]bool{orphan: true}}
		j := New()
		j.UseRecorder(provenance.NewRecorder(1))
		j.OnFault(fault(sick, 6*week-1))
		withProcs(procs, func() { nineDecides(t, j, view) })
		var out outcome
		for _, e := range view.events {
			if e.Kind == engine.KindStage {
				continue // the scripted fault's stage transitions
			}
			if e.Kind != engine.KindModelTrained {
				t.Fatalf("unexpected event %+v", e)
			}
			out.events = append(out.events, trained{e.Zone, e.Minute, e.Size})
		}
		out.stats = j.provider().Stats()
		out.stats.TrainTime = 0
		out.spans = j.prov.Spans()
		return out
	}
	want := run(1)
	var firstPools []provenance.Span
	for _, s := range want.spans {
		if s.Kind == provenance.SpanPool && s.Decision == 1 {
			firstPools = append(firstPools, s)
		}
	}
	if len(firstPools) != len(pools) || firstPools[0].Pool != orphan || firstPools[0].Outcome != "no-history" ||
		firstPools[1].Pool != sick || firstPools[1].Outcome != "quarantined" {
		t.Fatalf("first Decide's pool spans start %+v over %d spans; want %s no-history, %s quarantined, then %d outcomes",
			firstPools[:min(2, len(firstPools))], len(firstPools), orphan, sick, len(pools)-2)
	}
	rest := 0
	for _, p := range pools {
		if p == orphan || p == sick {
			continue
		}
		if s := firstPools[2+rest]; s.Pool != p || s.Outcome != "ok" {
			t.Fatalf("pool span %d is %+v, want %s ok", 2+rest, s, p)
		}
		rest++
	}
	for _, procs := range []int{2, 8} {
		got := run(procs)
		if !reflect.DeepEqual(got.events, want.events) {
			t.Fatalf("GOMAXPROCS %d: training events differ from the sequential run's (%d vs %d)", procs, len(got.events), len(want.events))
		}
		if got.stats != want.stats {
			t.Fatalf("GOMAXPROCS %d: provider counters %+v, sequential %+v", procs, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.spans, want.spans) {
			t.Fatalf("GOMAXPROCS %d: span stream differs from the sequential run's (%d vs %d spans)", procs, len(got.spans), len(want.spans))
		}
	}
}

// TestPriceReadErrorWaitsForTraining: prices are read before the workers
// train, but a pool with no history was always skipped before its price
// was asked for. So a failed read is fatal only once the pool is known
// to have a model — and then only after the pools listed before it have
// published their training events, as when the loop was sequential.
func TestPriceReadErrorWaitsForTraining(t *testing.T) {
	set := benchPoolSet(t)
	pools := set.Zones()
	broken := pools[5]
	view := &guardedView{traceView: traceView{set: set, now: 6 * week}, t: t,
		noPrice: map[string]bool{broken: true}, noHistory: map[string]bool{broken: true}}
	if _, err := New().Decide(view, lockSpec(), 180); err != nil {
		t.Fatalf("a pool with neither history nor price failed the Decide: %v", err)
	}
	view = &guardedView{traceView: traceView{set: set, now: 6 * week}, t: t, noPrice: map[string]bool{broken: true}}
	var err error
	withProcs(8, func() { _, err = New().Decide(view, lockSpec(), 180) })
	if !errors.Is(err, errNoPrice) {
		t.Fatalf("Decide over a trained pool without a price returned %v", err)
	}
	if len(view.events) != 6 || view.events[5].Zone != broken {
		t.Fatalf("%d training events before the error, want those of the 6 pools up to %s", len(view.events), broken)
	}
}
