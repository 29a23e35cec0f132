// Package telemetry is the observability layer over the simulation
// event stream: a small labeled-metrics registry (counters, gauges,
// log-bucketed histograms), a Collector that folds every engine.Event
// kind into metrics, and the versioned JSONL event trace's writer and
// reader, with a structural differ. The event trace is the run's
// determinism pin; the run's record is the manifest
// (internal/experiments), which holds no metrics. The Registry and the
// Collector have no caller outside the benchmark harness (bench/) and
// their tests.
//
// The layer is strictly pay-for-what-you-use: with no observer
// attached, publishers skip event construction entirely
// (engine.Fanout.Active) and the replay hot path is untouched. With a
// Collector attached, the per-event cost is a few cached-handle map
// reads and atomic adds — no allocation after a zone's handles are
// first built.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// metricKind discriminates the registry's metric families.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families. It is safe for concurrent use by any
// number of goroutines: registration is idempotent, handle resolution
// takes a short per-family lock, and handle updates are lock-free
// (counters, gauges) or take a per-series mutex (histograms).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed label schema.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	// histogram geometry, histogramKind only
	lo, hi    float64
	perDecade int

	mu     sync.Mutex
	series map[string]*series
}

// series is one labeled time series of a family.
type series struct {
	values []string
	// num is the counter value, or the gauge's float64 bits.
	num atomic.Int64

	// histogram state, guarded by hmu.
	hmu  sync.Mutex
	hist *stats.LogHistogram
}

// seriesKey joins label values with a separator that cannot appear in
// zone names, strategies, or the other label vocabularies we use.
func seriesKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, '\xff')
		}
		b = append(b, v...)
	}
	return string(b)
}

func (r *Registry) register(name, help string, kind metricKind, labels []string, lo, hi float64, perDecade int) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different schema", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("telemetry: metric %q re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		lo:     lo, hi: hi, perDecade: perDecade,
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	if f.kind == histogramKind {
		s.hist = stats.NewLogHistogram(f.lo, f.hi, f.perDecade)
	}
	f.series[key] = s
	return s
}

// CounterVec is a labeled family of monotonically increasing counters.
type CounterVec struct{ fam *family }

// Counter registers (or returns the already-registered) counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, counterKind, labels, 0, 0, 0)}
}

// With resolves the counter handle for one label-value tuple. Resolve
// once and cache the handle on hot paths: the handle's methods are
// lock-free and never allocate.
func (v *CounterVec) With(values ...string) *Counter {
	return &Counter{s: v.fam.with(values)}
}

// Counter is one counter series handle.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.num.Add(1) }

// Add adds n; n must not be negative.
func (c *Counter) Add(n int64) { c.s.num.Add(n) }

// GaugeVec is a labeled family of instantaneous values.
type GaugeVec struct{ fam *family }

// Gauge registers (or returns the already-registered) gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, gaugeKind, labels, 0, 0, 0)}
}

// With resolves the gauge handle for one label-value tuple.
func (v *GaugeVec) With(values ...string) *Gauge {
	return &Gauge{s: v.fam.with(values)}
}

// Gauge is one gauge series handle.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.num.Store(int64(math.Float64bits(v))) }

// HistogramVec is a labeled family of log-bucketed histograms
// (stats.LogHistogram): lo and hi bound the covered range and
// perDecade sets the relative resolution.
type HistogramVec struct{ fam *family }

// Histogram registers (or returns the already-registered) histogram
// family with geometric buckets over [lo, hi].
func (r *Registry) Histogram(name, help string, lo, hi float64, perDecade int, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, histogramKind, labels, lo, hi, perDecade)}
}

// With resolves the histogram handle for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{s: v.fam.with(values)}
}

// Histogram is one histogram series handle.
type Histogram struct{ s *series }

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	h.s.hmu.Lock()
	h.s.hist.Observe(x)
	h.s.hmu.Unlock()
}

// Snapshot is a point-in-time copy of every series in a registry,
// ordered deterministically (families by name, series by label
// values).
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family's snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Kind   string           `json:"kind"`
	Labels []string         `json:"labels,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one labeled series' snapshot.
type SeriesSnapshot struct {
	LabelValues []string `json:"label_values,omitempty"`
	// Value is the counter or gauge value; unused for histograms.
	Value float64 `json:"value"`
	// Histogram fields.
	Count   int64            `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Cumulative int64   `json:"n"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var snap Snapshot
	for _, f := range fams {
		fs := FamilySnapshot{
			Name: f.name, Help: f.help, Kind: f.kind.String(),
			Labels: f.labels,
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ss := SeriesSnapshot{LabelValues: s.values}
			switch f.kind {
			case counterKind:
				ss.Value = float64(s.num.Load())
			case gaugeKind:
				ss.Value = math.Float64frombits(uint64(s.num.Load()))
			case histogramKind:
				s.hmu.Lock()
				ss.Count = s.hist.Total()
				ss.Sum = s.hist.Sum()
				// Cumulative buckets: observations under the covered
				// range belong to every bucket; the implicit +Inf
				// bucket is the total, Count.
				cum := s.hist.Under
				for i, c := range s.hist.Counts {
					cum += c
					ss.Buckets = append(ss.Buckets, BucketSnapshot{
						UpperBound: s.hist.UpperBound(i), Cumulative: cum,
					})
				}
				s.hmu.Unlock()
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.Unlock()
		snap.Families = append(snap.Families, fs)
	}
	return snap
}
