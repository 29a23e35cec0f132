package smc

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// The incremental estimation path. The paper's framework retrains each
// zone's semi-Markov model on a fixed cadence over a sliding training
// window ("about three months" of history, refreshed weekly). Re-running
// the Equation 13 estimator over the full window on every retrain
// re-counts thirteen weeks of transitions to fold in one; the
// WindowedEstimator instead maintains the counts under a sliding window
// directly: new transitions are appended as history arrives and
// transitions that age out of the window are subtracted, so a retrain
// costs O(new + evicted) instead of O(window) — it reads only the price
// points past the previous window end, picking up the run that was open
// there from the remembered tail. TestAdvanceCostIndependentOfWindow
// holds it to that.
//
// The maintained counts are pinned, by TestWindowedEstimatorMatchesScratch,
// to be *identical* to those of a from-scratch estimator over the
// current window — including the left-truncation of the window's first
// price run — so the two training paths are interchangeable.

// effSojourn is the sojourn the Equation 13 counts see for a run over
// [start, end) under a window starting at winStart: left-truncated at
// the window boundary, clamped exactly as Estimator.Observe clamps.
func effSojourn(start, end, winStart, maxSojourn int64) int64 {
	return clampSojourn(end-max(start, winStart), maxSojourn)
}

// WindowedEstimator maintains an Estimator's transition counts over a
// sliding training window of a single zone's price history. The window
// only moves forward; Advance folds in newly observed transitions and
// evicts the ones that fell out, leaving counts equal to a from-scratch
// Estimator fed tr.Window(from, until).
//
// A WindowedEstimator is not safe for concurrent use; callers that
// share one (the modelcache provider) must serialize Advance/Model.
type WindowedEstimator struct {
	est *Estimator
	// chunks[head:] are the points read and not yet evicted, one slice
	// of the history per Advance, in minute order; chunks[:head] is the
	// space of evicted ones, kept for reuse. No transition is stored:
	// eviction re-reads them. The oldest live source run began at
	// headStart at level headFrom (the tail, if no transition is live);
	// the first chunk point at another price ends it.
	chunks    [][]trace.PricePoint
	head      int
	headStart int64
	headFrom  int32

	// tail is the price run still open at until: its price, and the
	// minute it began (or the window start of the time, if it began
	// before that — the truncation effSojourn applies anyway). It has
	// departed nowhere yet, so it is in no count; the next Advance
	// resumes it. Valid whenever until > from, as is tailLevel, its
	// price's level id.
	tail      trace.PricePoint
	tailLevel int32

	from, until int64
	inited      bool
}

// NewWindowedEstimator creates a windowed estimator with the given
// sojourn cap in minutes; 0 selects DefaultMaxSojourn.
func NewWindowedEstimator(maxSojourn int64) *WindowedEstimator {
	return &WindowedEstimator{est: NewEstimator(maxSojourn)}
}

// Window reports the current training window [from, until); both are
// zero before the first Advance.
func (w *WindowedEstimator) Window() (from, until int64) { return w.from, w.until }

// Model freezes the current window's counts into a queryable model; see
// Estimator.Model. The model is an independent snapshot: later Advance
// calls do not mutate it.
func (w *WindowedEstimator) Model() (*Model, error) { return w.est.Model() }

// Advance slides the window to [from, until), reading any new history
// from tr, which must be the same price history every call reads. Only
// its points from the previous until on are looked at, so that is all tr
// has to cover: [previous until, until) when the new window overlaps the
// old one — the suffix a MarketView.PriceHistory call from the previous
// until returns will do, and so will the whole window — and all of
// [from, until) on first use or when the window slid completely past
// the old one, where the estimator simply rebuilds from scratch; that is
// a semantic no-op, just without the incremental saving. The window can
// only move forward: from and until must each be at least their
// previous values. Advance keeps references to the points it reads until
// they leave the window: the caller must not modify them.
func (w *WindowedEstimator) Advance(tr *trace.Trace, from, until int64) error {
	if tr == nil {
		return fmt.Errorf("smc: Advance on nil trace")
	}
	if until < from {
		return fmt.Errorf("smc: window [%d, %d) inverted", from, until)
	}
	if w.inited && (from < w.from || until < w.until) {
		return fmt.Errorf("smc: window [%d, %d) moves backward from [%d, %d)", from, until, w.from, w.until)
	}
	// First use, or the window slid completely past the old one: the run
	// covering from opens the window, and price changes count from the
	// minute after. Otherwise the tail run is still open at the previous
	// until, and reading resumes there.
	restart := !w.inited || from >= w.until
	resume, covered := w.until, w.until
	if restart {
		resume, covered = from+1, from
	}
	if tr.Start > covered || tr.End < until {
		return fmt.Errorf("smc: history [%d, %d) does not cover [%d, %d) of window [%d, %d)", tr.Start, tr.End, covered, until, from, until)
	}
	next := sort.Search(len(tr.Points), func(i int) bool { return tr.Points[i].Minute >= resume })
	unread := tr.Points[next:]
	unread = unread[:sort.Search(len(unread), func(i int) bool { return unread[i].Minute >= until })]
	if restart {
		if until > from && next == 0 {
			return fmt.Errorf("smc: history [%d, %d) has no price at minute %d", tr.Start, tr.End, from)
		}
		w.est = NewEstimator(w.est.maxSojourn)
		w.chunks, w.head = w.chunks[:0], 0
		w.from, w.until = from, from
		w.inited = true
		if until > from {
			w.tail = trace.PricePoint{Minute: from, Price: tr.Points[next-1].Price}
			w.tailLevel = w.est.level(w.tail.Price)
			w.headStart, w.headFrom = from, w.tailLevel
		}
	}
	prevFrom := w.from

	// Evict transitions that left the window (source run hand-off at or
	// before the new start).
	p, ok := w.peek()
	for ; ok && p.Minute <= from; p, ok = w.peek() {
		to := w.est.level(p.Price)
		w.est.remove(w.headFrom, to, effSojourn(w.headStart, p.Minute, prevFrom, w.est.maxSojourn))
		w.headStart, w.headFrom = p.Minute, to
		w.chunks[w.head] = w.chunks[w.head][1:]
	}
	// Source runs tile time, so at most the first survivor can straddle
	// the new window start; its counted sojourn shrinks to the new
	// truncation.
	if ok && w.headStart < from {
		to := w.est.level(p.Price)
		oldK := effSojourn(w.headStart, p.Minute, prevFrom, w.est.maxSojourn)
		newK := effSojourn(w.headStart, p.Minute, from, w.est.maxSojourn)
		if oldK != newK {
			w.est.remove(w.headFrom, to, oldK)
			w.est.add(w.headFrom, to, newK)
		}
	}

	// Fold in the new transitions: every price change at a minute in
	// [resume, until) ends the tail run and opens the next. Points
	// repeating the tail's price merge into it, exactly like
	// Trace.Sojourns.
	for _, p := range unread {
		if p.Price == w.tail.Price {
			continue
		}
		to := w.est.level(p.Price)
		w.est.add(w.tailLevel, to, effSojourn(w.tail.Minute, p.Minute, from, w.est.maxSojourn))
		w.tail, w.tailLevel = p, to
	}
	if len(unread) > 0 {
		if len(w.chunks) == cap(w.chunks) && w.head > 0 {
			// Full: move the live chunks down over the evicted ones
			// before growing. A window sliding at a steady pace settles
			// into this and stops allocating.
			w.chunks, w.head = w.chunks[:copy(w.chunks, w.chunks[w.head:])], 0
		}
		w.chunks = append(w.chunks, unread)
	}

	w.from, w.until = from, until
	return nil
}

// peek returns the point that ends the oldest live source run — the
// first chunk point at a price other than the head level's — dropping
// the points before it, which repeat the head price and merged into the
// run when they were read. ok is false when no transition is live.
func (w *WindowedEstimator) peek() (p trace.PricePoint, ok bool) {
	for ; w.head < len(w.chunks); w.head++ {
		price, c := w.est.levels[w.headFrom].price, w.chunks[w.head]
		for len(c) > 0 && c[0].Price == price {
			c = c[1:]
		}
		if w.chunks[w.head] = c; len(c) > 0 {
			return c[0], true
		}
	}
	return p, false
}
