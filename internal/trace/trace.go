// Package trace represents spot-price histories: per-availability-zone
// sequences of (minute, price) change points, with piecewise-constant
// interpolation, windowing, and CSV serialization (io.go; the binary
// format lives in the colbin subpackage and reads through the same row
// discipline).
//
// It also provides a calibrated synthetic generator (gen.go) that stands
// in for the proprietary 2014 Amazon EC2 price history the paper trained
// and replayed on; see DESIGN.md §4 for the substitution rationale.
package trace

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/market"
)

// PricePoint is one spot-price change: the price becomes Price at Minute
// and holds until the next point.
type PricePoint struct {
	Minute int64
	Price  market.Money
}

// Trace is the spot-price history of one (zone, instance type) pair over
// [Start, End). Points are sorted by minute; the first point must be at
// Start so the price is defined over the whole span, except in a
// Window, a read-only view that no Set holds.
type Trace struct {
	Zone   string
	Type   market.InstanceType
	Start  int64 // inclusive
	End    int64 // exclusive
	Points []PricePoint
}

// Validate checks the structural invariants of the trace.
func (t *Trace) Validate() error {
	if t.End < t.Start {
		return fmt.Errorf("trace %s/%s: end %d before start %d", t.Zone, t.Type, t.End, t.Start)
	}
	if len(t.Points) == 0 {
		if t.End > t.Start {
			return fmt.Errorf("trace %s/%s: non-empty span with no points", t.Zone, t.Type)
		}
		return nil
	}
	if t.Points[0].Minute != t.Start {
		return fmt.Errorf("trace %s/%s: first point at %d, want start %d", t.Zone, t.Type, t.Points[0].Minute, t.Start)
	}
	// One pass. An order violation ends it; the lowest price waits
	// until after the span-end check, so the first error is always the
	// earliest of: not increasing, last point past End, negative price.
	pts := t.Points
	prev, low := pts[0].Minute, pts[0].Price
	for i := 1; i < len(pts); i++ {
		if pts[i].Minute <= prev {
			return fmt.Errorf("trace %s/%s: points not strictly increasing at index %d", t.Zone, t.Type, i)
		}
		prev, low = pts[i].Minute, min(low, pts[i].Price)
	}
	if prev >= t.End {
		return fmt.Errorf("trace %s/%s: last point %d at or beyond end %d", t.Zone, t.Type, prev, t.End)
	}
	if low < 0 {
		i := slices.IndexFunc(pts, func(p PricePoint) bool { return p.Price < 0 })
		return fmt.Errorf("trace %s/%s: negative price at minute %d", t.Zone, t.Type, pts[i].Minute)
	}
	return nil
}

// indexAt returns the index of the last point at or before minute. It
// panics if the minute is outside [Start, End).
func (t *Trace) indexAt(minute int64) int {
	if minute < t.Start || minute >= t.End {
		panic(fmt.Sprintf("trace: minute %d outside [%d, %d)", minute, t.Start, t.End))
	}
	return sort.Search(len(t.Points), func(i int) bool {
		return t.Points[i].Minute > minute
	}) - 1
}

// PriceAt returns the price in effect at the given minute. It panics if
// the minute is outside [Start, End).
func (t *Trace) PriceAt(minute int64) market.Money {
	return t.Points[t.indexAt(minute)].Price
}

// AgeAt returns how many minutes the price in effect at the given
// minute has held, merging adjacent points with equal price. It panics
// outside [Start, End).
func (t *Trace) AgeAt(minute int64) int64 {
	return t.ageFrom(t.indexAt(minute), minute)
}

// ageFrom computes AgeAt given the index of the point covering minute,
// so callers that already know the index (the memoized Cursor) skip the
// binary search.
func (t *Trace) ageFrom(i int, minute int64) int64 {
	cur := t.Points[i].Price
	start := t.Points[i].Minute
	for i > 0 && t.Points[i-1].Price == cur {
		i--
		start = t.Points[i].Minute
	}
	return minute - max(start, t.Start) + 1
}

// Window returns the sub-trace over [lo, hi) as a read-only view of t's
// points, capacity clipped so an append cannot write into t. They start
// at the point in effect at lo, which may lie before it (and fail
// Validate); every method counts a run from Start at the earliest.
// An empty window has no points. It panics if [lo, hi) is not within
// [Start, End).
func (t *Trace) Window(lo, hi int64) *Trace {
	if lo < t.Start || hi > t.End || lo > hi {
		panic(fmt.Sprintf("trace: window [%d, %d) outside [%d, %d)", lo, hi, t.Start, t.End))
	}
	w := &Trace{Zone: t.Zone, Type: t.Type, Start: lo, End: hi}
	if lo < hi {
		first := sort.Search(len(t.Points), func(i int) bool { return t.Points[i].Minute > lo })
		end := first + sort.Search(len(t.Points)-first, func(i int) bool { return t.Points[first+i].Minute >= hi })
		w.Points = t.Points[first-1 : end : end]
	}
	return w
}

// EachRun calls yield with each observed (price, duration-in-minutes)
// run of the trace in order, merging adjacent points with equal price.
// A run starts at Start at the earliest; the final one is truncated at
// End. It builds nothing: the history scans walk the points in place.
func (t *Trace) EachRun(yield func(Sojourn)) {
	if len(t.Points) == 0 {
		return
	}
	cur := Sojourn{Price: t.Points[0].Price}
	curStart := max(t.Points[0].Minute, t.Start)
	for _, p := range t.Points[1:] {
		if p.Price == cur.Price {
			continue
		}
		cur.Minutes = p.Minute - curStart
		yield(cur)
		cur = Sojourn{Price: p.Price}
		curStart = p.Minute
	}
	cur.Minutes = t.End - curStart
	yield(cur)
}

// Sojourns returns the runs EachRun yields.
func (t *Trace) Sojourns() []Sojourn {
	var runs []Sojourn
	t.EachRun(func(s Sojourn) { runs = append(runs, s) })
	return runs
}

// Sojourn is a maximal run of constant price.
type Sojourn struct {
	Price   market.Money
	Minutes int64
}

// MeanPrice returns the time-weighted mean price over the trace span, or
// zero for an empty span.
func (t *Trace) MeanPrice() market.Money {
	if t.End <= t.Start {
		return 0
	}
	var weighted int64
	t.EachRun(func(s Sojourn) { weighted += int64(s.Price) * s.Minutes })
	return market.Money(weighted / (t.End - t.Start))
}

// MaxPrice returns the maximum price observed, or zero for an empty trace.
func (t *Trace) MaxPrice() market.Money {
	var max market.Money
	for _, p := range t.Points {
		if p.Price > max {
			max = p.Price
		}
	}
	return max
}

// FractionAbove returns the fraction of the span during which the price
// strictly exceeds the threshold — the out-of-bid fraction under bid =
// threshold. Returns 0 for an empty span.
func (t *Trace) FractionAbove(threshold market.Money) float64 {
	if t.End <= t.Start {
		return 0
	}
	var above int64
	t.EachRun(func(s Sojourn) {
		if s.Price > threshold {
			above += s.Minutes
		}
	})
	return float64(above) / float64(t.End-t.Start)
}

// Set is a collection of traces keyed by pool identifier, sharing one
// time span. Type is the set's base instance type: its traces are keyed
// by bare zone name, exactly as zone-keyed sets always were, while
// traces of other types are keyed "zone/type" (see market.PoolKey). A
// single-type set therefore has the same keys, bytes, and fingerprint
// it had before pools existed.
type Set struct {
	Type   market.InstanceType
	Start  int64
	End    int64
	ByZone map[string]*Trace
}

// NewSet creates an empty trace set with the given base type.
func NewSet(it market.InstanceType, start, end int64) *Set {
	return &Set{Type: it, Start: start, End: end, ByZone: make(map[string]*Trace)}
}

// addKeyed inserts a trace under an explicit pool key after span and
// structural validation.
func (s *Set) addKeyed(key string, t *Trace) error {
	if t.Start != s.Start || t.End != s.End {
		return fmt.Errorf("trace: set span [%d,%d), trace span [%d,%d)", s.Start, s.End, t.Start, t.End)
	}
	if err := t.Validate(); err != nil {
		return err
	}
	s.ByZone[key] = t
	return nil
}

// Add inserts a base-type trace keyed by its zone, validating span and
// type consistency. An existing trace for the zone is replaced.
func (s *Set) Add(t *Trace) error {
	if t.Type != s.Type {
		return fmt.Errorf("trace: set type %s, trace type %s", s.Type, t.Type)
	}
	return s.addKeyed(t.Zone, t)
}

// AddPool inserts a trace of any cataloged type keyed by its pool
// identifier (bare zone for the base type, "zone/type" otherwise).
// Unlike Add it rejects a duplicate pool rather than replacing it.
func (s *Set) AddPool(t *Trace) error {
	key := market.PoolKey(t.Zone, t.Type, s.Type)
	if _, ok := s.ByZone[key]; ok {
		return fmt.Errorf("trace: duplicate pool %s", key)
	}
	return s.addKeyed(key, t)
}

// Zones returns the pool keys present, sorted. For a single-type set
// these are exactly the zone names.
func (s *Set) Zones() []string {
	zs := make([]string, 0, len(s.ByZone))
	for z := range s.ByZone {
		zs = append(zs, z)
	}
	sort.Strings(zs)
	return zs
}

// Fingerprint returns a stable 64-bit identity of the set's full
// contents — instance type, span, and every zone's price points — for
// keying derived artifacts such as trained price models (see
// internal/modelcache). Two sets with equal contents fingerprint
// equally regardless of construction order; any differing point
// changes the value with overwhelming probability. O(total points).
//
// The value is an in-process cache key only (modelcache.Key.Trace): no
// file, golden or digest records it. It folds 64-bit words through
// fpMix — the type, then the span, then per pool key in sorted order
// the key, the point count and each point's minute and price; a name
// is its length and then its bytes, eight to a word.
func (s *Set) Fingerprint() uint64 {
	h := fpString(0, string(s.Type))
	h = fpMix(h, uint64(s.Start))
	h = fpMix(h, uint64(s.End))
	for _, z := range s.Zones() {
		h = fpString(h, z)
		tr := s.ByZone[z]
		h = fpMix(h, uint64(len(tr.Points)))
		for _, p := range tr.Points {
			h = fpMix(h, uint64(p.Minute))
			h = fpMix(h, uint64(p.Price))
		}
	}
	return h
}

// fpMix folds one word into the fingerprint state: xor, an odd
// multiply, an xor-shift that carries the high bits down. Each step is
// a bijection of the state for a fixed word and of the word for a fixed
// state, so changing any single word always changes the fingerprint.
func fpMix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// fpString folds a name's length, then its bytes eight to a
// little-endian word, the last one zero-padded.
func fpString(h uint64, s string) uint64 {
	h = fpMix(h, uint64(len(s)))
	for ; len(s) > 0; s = s[min(8, len(s)):] {
		var w uint64
		for i := 0; i < len(s) && i < 8; i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h = fpMix(h, w)
	}
	return h
}
