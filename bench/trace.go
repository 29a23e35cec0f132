package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the tracer was made; Parent indexes the enclosing
// span (-1 for a rep) and Rep is the identifier every span of one rep
// shares. A span's self time is its duration minus its children's.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Rep    int32  `json:"rep"`
}

// tracer is the traced pass's instrumentation: it keeps every span in
// memory and sums what the wrappers see into per-layer counts. A nil
// *tracer is the untraced pass: every method is then a no-op (run just
// calls replay.Run), so the workloads are written once.
//
// One goroutine drives a replay, so nothing here locks — except the
// event counts, which the cells of a parallel sweep share.
type tracer struct {
	t0    time.Time
	spans []span
	rep   int32
	cur   int32

	decideNs      []float64
	decideAlloc   uint64
	historyN      int
	historyNs     int64
	priceReads    int
	inDecide      bool
	observerNs    map[string]int64
	observerOutNs int64 // observer time not nested in a Decide
	replayNs      int64
	replays       int
	results       resultCounts
	cache         modelcache.Stats
	series        int
	ledgerCells   int
	provSpans     int

	mu             sync.Mutex
	events         [engine.KindCount]int64
	outOfBidEvents int64
}

// resultCounts sums replay.Result fields over the traced pass.
type resultCounts struct {
	decisions, spot, od, outOfBid, failedReq int
	groupSum                                 float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1, observerNs: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

var noop = func() {}

// detailReps is how many traced reps keep every span; later reps keep
// only their rep span. The per-layer sums cover all reps either way —
// this only bounds the span file (an observed replay is one span per
// event and observer).
const detailReps = 2

// begin opens a span under the current one and returns what closes it.
func (t *tracer) begin(name string) func() {
	if t == nil || (t.rep > detailReps && t.cur >= 0) {
		return noop
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.cur, Rep: t.rep})
	parent := t.cur
	t.cur = id
	return func() {
		t.spans[id].End = t.now()
		t.cur = parent
	}
}

func (t *tracer) startRep() {
	t.rep++
	t.cur = -1
	t.begin("rep")
}

func (t *tracer) endRep() {
	// A failed rep may have left spans open; the rep span closes them all.
	end := t.now()
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Rep == t.rep; i-- {
		if t.spans[i].End == 0 {
			t.spans[i].End = end
		}
	}
	t.cur = -1
}

// run is replay.Run seen from outside: the strategy, the market view it
// is handed and every configured observer are wrapped by timing
// proxies, and an event-counting observer is appended.
func (t *tracer) run(label string, cfg replay.Config) (*replay.Result, error) {
	if t == nil {
		return replay.Run(cfg)
	}
	strat, err := t.wrapStrategy(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	cfg.Strategy = strat
	observers := make([]engine.Observer, 0, len(cfg.Observers)+1)
	for i, o := range cfg.Observers {
		observers = append(observers, newTimedObserver(t, observerName(o, i), o))
	}
	cfg.Observers = append(observers, &eventCounter{t: t})

	end := t.begin("replay." + label)
	t0 := time.Now()
	res, err := replay.Run(cfg)
	t.replayNs += int64(time.Since(t0))
	end()
	if err != nil {
		return nil, err
	}
	t.replays++
	t.results.decisions += res.Decisions
	t.results.spot += res.SpotLaunch
	t.results.od += res.OnDemandLaunch
	t.results.outOfBid += res.OutOfBid
	t.results.failedReq += res.FailedRequests
	t.results.groupSum += res.MeanGroupSize
	t.addCache(cfg.Models.Stats())
	return res, nil
}

func (t *tracer) addCache(s modelcache.Stats) {
	t.cache.Hits += s.Hits
	t.cache.Misses += s.Misses
	t.cache.ScratchTrains += s.ScratchTrains
	t.cache.IncrementalTrains += s.IncrementalTrains
	t.cache.TrainTime += s.TrainTime
}

// observed reads what a replay's own observers hold once it has ended.
func (t *tracer) observed(reg *telemetry.Registry, l *provenance.Ledger, r *provenance.Recorder) {
	if t == nil {
		return
	}
	for _, f := range reg.Snapshot().Families {
		t.series += len(f.Series)
	}
	t.ledgerCells += len(l.Attribution().Cells)
	t.provSpans += len(r.Spans())
}

// sweep is Env.Fig6and7 seen from outside. The cells run on env.Jobs
// goroutines inside the experiments package, so they can be neither
// wrapped nor spanned: the sweep is one span and its events are
// counted.
func (t *tracer) sweep(env experiments.Env) ([]experiments.SweepRow, error) {
	if t == nil {
		return env.Fig6and7()
	}
	env.Observe = func(strategy.ServiceSpec, string, int64) []engine.Observer {
		return []engine.Observer{&eventCounter{t: t}}
	}
	end := t.begin("sweep")
	t0 := time.Now()
	rows, err := env.Fig6and7()
	t.replayNs += int64(time.Since(t0))
	end()
	if err != nil {
		return nil, err
	}
	t.replays++
	for _, r := range rows {
		t.results.outOfBid += r.OutOfBid
		t.results.groupSum += r.MeanGroupSize / float64(len(rows))
	}
	t.addCache(env.Models.Stats())
	return rows, nil
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// eventCounter counts the event stream by kind.
type eventCounter struct {
	engine.BaseObserver
	t *tracer
}

func (c *eventCounter) count(e engine.Event) {
	c.t.mu.Lock()
	c.t.events[e.Kind]++
	c.t.mu.Unlock()
}
func (c *eventCounter) OnInstance(e engine.Event) { c.count(e) }
func (c *eventCounter) OnDecision(e engine.Event) { c.count(e) }
func (c *eventCounter) OnBilling(e engine.Event)  { c.count(e) }
func (c *eventCounter) OnQuorum(e engine.Event)   { c.count(e) }
func (c *eventCounter) OnModel(e engine.Event)    { c.count(e) }
func (c *eventCounter) OnFault(e engine.Event)    { c.count(e) }

// OnOutOfBid counts apart from the kinds: engine.Dispatch delivers the
// same termination to OnInstance too.
func (c *eventCounter) OnOutOfBid(engine.Event) {
	c.t.mu.Lock()
	c.t.outOfBidEvents++
	c.t.mu.Unlock()
}

func observerName(o engine.Observer, i int) string {
	switch o.(type) {
	case *telemetry.Collector:
		return "telemetry"
	case *provenance.Ledger:
		return "ledger"
	}
	return fmt.Sprintf("observer%d", i)
}

// timedObserver times every hook of a configured observer.
type timedObserver struct {
	t     *tracer
	name  string
	inner engine.Observer
	// spans holds the hooks' span names, built once: a hook runs per
	// event.
	spans [len(hookNames)]string
}

var hookNames = [...]string{"instance", "out_of_bid", "decision", "billing", "quorum", "model", "fault"}

func newTimedObserver(t *tracer, name string, inner engine.Observer) *timedObserver {
	o := &timedObserver{t: t, name: name, inner: inner}
	for i, h := range hookNames {
		o.spans[i] = "observer." + name + "." + h
	}
	return o
}

func (o *timedObserver) hook(i int, fn func(engine.Event), e engine.Event) {
	end := o.t.begin(o.spans[i])
	t0 := time.Now()
	fn(e)
	d := int64(time.Since(t0))
	end()
	o.t.observerNs[o.name] += d
	if !o.t.inDecide {
		o.t.observerOutNs += d
	}
}
func (o *timedObserver) OnInstance(e engine.Event) { o.hook(0, o.inner.OnInstance, e) }
func (o *timedObserver) OnOutOfBid(e engine.Event) { o.hook(1, o.inner.OnOutOfBid, e) }
func (o *timedObserver) OnDecision(e engine.Event) { o.hook(2, o.inner.OnDecision, e) }
func (o *timedObserver) OnBilling(e engine.Event)  { o.hook(3, o.inner.OnBilling, e) }
func (o *timedObserver) OnQuorum(e engine.Event)   { o.hook(4, o.inner.OnQuorum, e) }
func (o *timedObserver) OnModel(e engine.Event)    { o.hook(5, o.inner.OnModel, e) }
func (o *timedObserver) OnFault(e engine.Event)    { o.hook(6, o.inner.OnFault, e) }

// jupiterLike is every optional interface replay.Run looks for on a
// strategy, all of which core.Jupiter has and strategy.Extra lacks.
type jupiterLike interface {
	strategy.Strategy
	modelcache.Consumer
	provenance.Consumer
	engine.Observer
	strategy.FailureProber
}

// wrapStrategy returns a timing proxy with exactly the optional
// interfaces of the strategy it wraps, so replay.Run treats the two
// alike.
func (t *tracer) wrapStrategy(s strategy.Strategy) (strategy.Strategy, error) {
	base := timedStrategy{t: t, inner: s}
	if j, ok := s.(jupiterLike); ok {
		if _, ok := s.(strategy.IntervalChooser); ok {
			return nil, fmt.Errorf("bench: no transparent wrapper for %T", s)
		}
		return &timedJupiter{timedStrategy: base, j: j}, nil
	}
	switch s.(type) {
	case modelcache.Consumer, provenance.Consumer, engine.Observer, strategy.FailureProber, strategy.IntervalChooser:
		return nil, fmt.Errorf("bench: no transparent wrapper for %T", s)
	}
	return &base, nil
}

type timedStrategy struct {
	t     *tracer
	inner strategy.Strategy
}

func (s *timedStrategy) Name() string { return s.inner.Name() }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative bytes allocated, without the
// stop-the-world of runtime.ReadMemStats.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func (s *timedStrategy) Decide(view strategy.MarketView, spec strategy.ServiceSpec, interval int64) (strategy.Decision, error) {
	t := s.t
	full, ok := view.(fullView)
	if !ok {
		return strategy.Decision{}, fmt.Errorf("bench: no transparent wrapper for view %T", view)
	}
	end := t.begin("decide")
	t.inDecide = true
	a0 := heapAllocs()
	t0 := time.Now()
	d, err := s.inner.Decide(&timedView{t: t, fullView: full}, spec, interval)
	t.decideNs = append(t.decideNs, float64(time.Since(t0)))
	t.decideAlloc += heapAllocs() - a0
	t.inDecide = false
	end()
	return d, err
}

type timedJupiter struct {
	timedStrategy
	j jupiterLike
}

func (s *timedJupiter) UseModelCache(c *modelcache.Cache)  { s.j.UseModelCache(c) }
func (s *timedJupiter) UseRecorder(r *provenance.Recorder) { s.j.UseRecorder(r) }
func (s *timedJupiter) LastBidFailureProbabilities() map[string]float64 {
	return s.j.LastBidFailureProbabilities()
}
func (s *timedJupiter) OnInstance(e engine.Event) { s.j.OnInstance(e) }
func (s *timedJupiter) OnOutOfBid(e engine.Event) { s.j.OnOutOfBid(e) }
func (s *timedJupiter) OnDecision(e engine.Event) { s.j.OnDecision(e) }
func (s *timedJupiter) OnBilling(e engine.Event)  { s.j.OnBilling(e) }
func (s *timedJupiter) OnQuorum(e engine.Event)   { s.j.OnQuorum(e) }
func (s *timedJupiter) OnModel(e engine.Event)    { s.j.OnModel(e) }
func (s *timedJupiter) OnFault(e engine.Event)    { s.j.OnFault(e) }

// fullView is the market view replay.Run hands a strategy: the required
// interface plus the three optional extensions, which the embedding in
// timedView forwards untouched.
type fullView interface {
	strategy.MarketView
	strategy.TraceIdentifier
	strategy.EventPublisher
	strategy.LoadTargeter
}

// timedView counts the strategy's market reads and times its history
// fetches.
type timedView struct {
	t *tracer
	fullView
}

func (v *timedView) SpotPrice(zone string) (market.Money, error) {
	v.t.priceReads++
	return v.fullView.SpotPrice(zone)
}

func (v *timedView) SpotPriceAge(zone string) (int64, error) {
	v.t.priceReads++
	return v.fullView.SpotPriceAge(zone)
}

func (v *timedView) PriceHistory(zone string, from, to int64) (*trace.Trace, error) {
	end := v.t.begin("history_fetch")
	t0 := time.Now()
	tr, err := v.fullView.PriceHistory(zone, from, to)
	v.t.historyNs += int64(time.Since(t0))
	v.t.historyN++
	end()
	return tr, err
}
