package trace

import "repro/internal/market"

// Cursor memoizes the last point index looked up on a trace, so a
// monotone (or nearly monotone) stream of PriceAt/AgeAt queries — the
// shape every simulation clock produces — costs an O(1) amortized
// bounded scan instead of a fresh binary search per call. Queries that
// jump arbitrarily fall back to binary search, so a Cursor is never
// worse than the plain trace methods, only cheaper on locality.
//
// A Cursor is not goroutine-safe; give each worker its own.
type Cursor struct {
	t   *Trace
	idx int // index of the point covering the last queried minute
}

// NewCursor returns a cursor over t positioned at its first point.
func NewCursor(t *Trace) *Cursor {
	return &Cursor{t: t}
}

// maxScan bounds the linear walk from the memoized index before the
// cursor gives up and binary-searches. Spot price changes are minutes
// to hours apart, so consecutive simulation minutes almost always land
// within a step or two; 32 covers bursts of changes without letting a
// long jump degrade to a linear scan.
const maxScan = 32

// IndexAt returns the index of the point covering minute, advancing or
// rewinding the memoized position. It panics outside [Start, End), like
// Trace.PriceAt.
func (c *Cursor) IndexAt(minute int64) int {
	t := c.t
	if minute < t.Start || minute >= t.End {
		return t.indexAt(minute) // panics with the canonical message
	}
	pts := t.Points
	i := c.idx
	if i < 0 || i >= len(pts) {
		i = 0
	}
	if pts[i].Minute <= minute {
		// Walk forward while the next point still starts at or
		// before minute.
		for steps := 0; i+1 < len(pts) && pts[i+1].Minute <= minute; steps++ {
			if steps == maxScan {
				i = t.indexAt(minute)
				break
			}
			i++
		}
	} else {
		// Behind the memoized point: short backward walk. minute >=
		// Start guarantees pts[0] covers it, so i stays in range.
		for steps := 0; pts[i].Minute > minute; steps++ {
			if steps == maxScan {
				i = t.indexAt(minute)
				break
			}
			i--
		}
	}
	c.idx = i
	return i
}

// PriceAt returns the price in effect at minute, memoizing the lookup
// position. Panics outside [Start, End).
func (c *Cursor) PriceAt(minute int64) market.Money {
	return c.t.Points[c.IndexAt(minute)].Price
}

// AgeAt returns how long the price at minute has held (merging
// equal-price points), memoizing the lookup position. Panics outside
// [Start, End).
func (c *Cursor) AgeAt(minute int64) int64 {
	return c.t.ageFrom(c.IndexAt(minute), minute)
}
