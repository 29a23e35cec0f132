// Package modelcache is the shared price-model provider: a
// concurrency-safe cache of trained semi-Markov spot-price models
// (internal/smc) keyed by what a model is a pure function of — the
// underlying price history's identity, the zone and the training
// window. Every model is trained at smc.DefaultMaxSojourn.
//
// The bidding framework retrains one model per availability zone on a
// fixed cadence; a parallel experiment sweep runs many framework
// instances over the *same* traces, so without sharing every sweep cell
// re-estimates identical models. The cache trains each distinct model
// exactly once — concurrent requesters for the same key block on the
// entry while one of them trains, then all share the frozen model
// (smc.Model is safe for concurrent readers) — and serves every later
// request from memory.
//
// Training itself is incremental where possible: per (trace, zone)
// series the cache keeps a sliding-window estimator
// (smc.WindowedEstimator), so a weekly retrain folds in one week of new
// transitions instead of re-scanning the whole thirteen-week window —
// and asks the history fetcher for that week only (GetFrom). Requests
// whose window is behind the series position (parallel cells retrain at
// slightly different minutes) fall back to from-scratch estimation
// without disturbing the series; the two paths are pinned equivalent, so
// cache results never depend on request order.
package modelcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/smc"
	"repro/internal/trace"
)

// Key identifies one trained model: everything the estimation is a
// function of. From/Until are the *requested* training window; the
// history fetcher may clamp it to what has been observed, which is a
// function of the same inputs, so equal keys still mean equal models.
type Key struct {
	// Trace fingerprints the price history the model trains on
	// (trace.Set.Fingerprint). Callers sharing one cache across
	// different trace sets must set it; 0 is reserved for callers that
	// guarantee a single history per cache.
	Trace uint64
	// Zone is the pool key (market.PoolKey): the bare availability-zone
	// name for base-type pools, "zone/type" for other types. Each pool
	// has its own price history, so each gets its own models.
	Zone string
	// From and Until bound the training window in minutes.
	From, Until int64
}

// Outcome reports how one Get was served, for instrumentation.
type Outcome struct {
	// Hit is true when the model was already trained (including waiting
	// out another goroutine's in-flight training of the same key).
	Hit bool
	// Incremental is true when a miss was trained by advancing the
	// series' sliding-window estimator rather than from scratch.
	Incremental bool
	// TrainTime is the wall-clock cost of training on a miss.
	TrainTime time.Duration
}

// Stats are the cache's cumulative counters. TrainTime is the total
// wall-clock spent estimating; on concurrent misses the per-train times
// sum, so it can exceed elapsed time.
type Stats struct {
	Hits              uint64
	Misses            uint64
	ScratchTrains     uint64
	IncrementalTrains uint64
	TrainTime         time.Duration
}

// String renders the counters for -model-stats style reports.
func (s Stats) String() string {
	total := s.Hits + s.Misses
	rate := 0.0
	if total > 0 {
		rate = float64(s.Hits) / float64(total)
	}
	return fmt.Sprintf("model cache: %d lookups, %d hits (%.1f%%), %d trained (%d incremental, %d scratch), %v training",
		total, s.Hits, 100*rate, s.Misses, s.IncrementalTrains, s.ScratchTrains, s.TrainTime)
}

// entry is one cache slot. The entry mutex doubles as the
// single-flight latch: the first goroutine to create the slot trains
// while holding it; later goroutines for the same key block on it and
// find the model done.
type entry struct {
	mu    sync.Mutex
	done  bool
	model *smc.Model
	err   error
}

// seriesKey identifies a price-history series whose windows share one
// incremental estimator.
type seriesKey struct {
	trace uint64
	zone  string
}

// series is the per-history incremental estimator state. reqFrom is the
// Key.From of the request that last moved est: while requested starts do
// not decrease, the start the fetcher would clamp the next one to is
// max(its From, the window start est holds), with no fetch to read it off.
type series struct {
	mu      sync.Mutex
	est     *smc.WindowedEstimator
	reqFrom int64
}

// Cache is the shared model provider. The zero value is not usable;
// call New. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	series  map[seriesKey]*series

	hits, misses, scratch, incremental atomic.Uint64
	trainNanos                         atomic.Int64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		entries: make(map[Key]*entry),
		series:  make(map[seriesKey]*series),
	}
}

// Get is GetFrom for a fetcher that can only produce the whole window.
func (c *Cache) Get(k Key, fetch func() (*trace.Trace, error)) (*smc.Model, Outcome, error) {
	return c.GetFrom(k, func(int64) (*trace.Trace, error) { return fetch() })
}

// GetFrom returns the trained model for the key, invoking fetch for
// price history only when the model is not already cached. Concurrent
// calls for the same key train once and share the result; errors (from
// fetch, or estimation on an empty window) are cached per key like
// models, since they are equally a function of the key.
//
// fetch(since) returns the key's history from minute since to Until,
// clamped to what has been observed. A window that continues its series
// — it overlaps and ends past the series' window, and starts no earlier
// than the last request did — asks for since = the series' until, the
// only stretch the sliding-window estimator reads. Every other window
// (new series, behind it, disjoint from it) asks once for since = From.
// So does a continuing one whose suffix came back with nothing new in it
// or not starting at since — a feed gone stale before the series' until
// — and that second call is the only one a miss ever adds. A fetcher may
// ignore since and return the whole window every time, as Get's does:
// history reaching back before the minute asked for is taken as the
// window. fetch runs with the series locked, so it must not call back
// into the cache.
func (c *Cache) GetFrom(k Key, fetch func(since int64) (*trace.Trace, error)) (*smc.Model, Outcome, error) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = &entry{}
		c.entries[k] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		c.hits.Add(1)
		return e.model, Outcome{Hit: true}, e.err
	}
	c.misses.Add(1)
	out := Outcome{}
	e.model, out.Incremental, out.TrainTime, e.err = c.train(k, fetch)
	e.done = true
	if e.err == nil {
		if out.Incremental {
			c.incremental.Add(1)
		} else {
			c.scratch.Add(1)
		}
		c.trainNanos.Add(int64(out.TrainTime))
	}
	return e.model, out, e.err
}

// train estimates the key's model, advancing the series' incremental
// estimator when the requested window continues it and falling back to
// a from-scratch pass otherwise. The reported duration starts when the
// last fetch returns.
func (c *Cache) train(k Key, fetch func(since int64) (*trace.Trace, error)) (*smc.Model, bool, time.Duration, error) {
	sk := seriesKey{trace: k.Trace, zone: k.Zone}
	c.mu.Lock()
	s, ok := c.series[sk]
	if !ok {
		s = &series{}
		c.series[sk] = s
	}
	c.mu.Unlock()

	var fetched time.Time
	s.mu.Lock()
	m, incremental, hist, err := s.train(k, func(since int64) (*trace.Trace, error) {
		h, err := fetch(since)
		fetched = time.Now()
		return h, err
	})
	s.mu.Unlock()
	if err != nil {
		return nil, false, 0, err
	}
	if m == nil {
		// Behind the series position: a standalone model.
		est := smc.NewEstimator(smc.DefaultMaxSojourn)
		est.Observe(hist)
		if m, err = est.Model(); err != nil {
			return nil, false, 0, err
		}
	}
	return m, incremental, time.Since(fetched), nil
}

// train is the part of a miss that runs with the series locked: the
// fetch, and the training when it is the series' own estimator that
// does it. A nil model with a nil error hands back the window's history
// instead: the request is behind the series, which stays where it is.
func (s *series) train(k Key, fetch func(since int64) (*trace.Trace, error)) (m *smc.Model, incremental bool, hist *trace.Trace, err error) {
	if s.est != nil {
		if from, until := s.est.Window(); k.From >= s.reqFrom && k.From < until && k.Until > until {
			var suffix *trace.Trace
			if suffix, err = fetch(until); err != nil {
				return nil, false, nil, err
			}
			switch {
			case suffix == nil || suffix.End <= until || suffix.Start > until:
				// Nothing usable past the series: ask for the whole window.
			case suffix.Start < until:
				hist = suffix // the fetcher returned the window, not the suffix
			default:
				if s.est.Advance(suffix, max(k.From, from), suffix.End) == nil {
					s.reqFrom = k.From
					m, err = s.est.Model()
					return m, true, nil, err
				}
			}
		}
	}
	if hist == nil {
		if hist, err = fetch(k.From); err != nil {
			return nil, false, nil, err
		}
		if hist == nil {
			return nil, false, nil, fmt.Errorf("modelcache: fetch returned no history for zone %s", k.Zone)
		}
	}

	if s.est != nil {
		// Continue the series when the window slides forward from it.
		if s.est.Advance(hist, hist.Start, hist.End) == nil {
			s.reqFrom = k.From
			m, err = s.est.Model()
			return m, true, nil, err
		}
		if _, until := s.est.Window(); hist.End < until {
			return nil, false, hist, nil
		}
		// The series cannot serve this window (e.g. its start moved
		// backward after a reset elsewhere); rebuild it here so the next
		// retrain is incremental again.
	}
	s.est = smc.NewWindowedEstimator(smc.DefaultMaxSojourn)
	if err = s.est.Advance(hist, hist.Start, hist.End); err != nil {
		s.est = nil
		return nil, false, nil, err
	}
	s.reqFrom = k.From
	m, err = s.est.Model()
	return m, false, nil, err
}

// Stats snapshots the cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		ScratchTrains:     c.scratch.Load(),
		IncrementalTrains: c.incremental.Load(),
		TrainTime:         time.Duration(c.trainNanos.Load()),
	}
}

// Consumer is implemented by strategies that can route their model
// training through a shared cache; the replay harness wires
// replay.Config.Models into any strategy that implements it.
type Consumer interface {
	UseModelCache(*Cache)
}
