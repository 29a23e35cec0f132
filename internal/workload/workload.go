// Package workload models the request traffic a hosted service must
// serve: a requests-per-second trace at minute resolution
// (piecewise-constant between change points, exactly like the spot
// price traces of internal/trace), readers and writers with the same
// Strict/Lenient discipline as the price readers, a synthetic
// generator (diurnal sinusoid plus seeded flash crowds), and an
// autoscaler that maps the trace to a target group-size plan over
// time. The paper fixes the group size n; this package supplies the
// load signal that makes n move.
package workload

import (
	"fmt"
	"sort"
)

// Point is one change point of the request-rate process: from Minute
// on (until the next point) the service receives RPS requests/sec.
type Point struct {
	Minute int64
	RPS    float64
}

// Trace is a request-rate history over [Start, End), piecewise
// constant between its change points. Points are in strictly
// ascending minute order.
type Trace struct {
	Start, End int64
	Points     []Point
}

// New validates and builds a trace. Points must be strictly ascending
// in minute with non-negative finite rates, and the span non-empty.
func New(start, end int64, points []Point) (*Trace, error) {
	if end <= start {
		return nil, fmt.Errorf("workload: empty span [%d, %d)", start, end)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("workload: no points")
	}
	prev := int64(0)
	for i, p := range points {
		if reason := checkRPS(p.RPS); reason != "" {
			return nil, fmt.Errorf("workload: point %d: rps %v (%s)", i, p.RPS, reason)
		}
		if i > 0 && p.Minute <= prev {
			return nil, fmt.Errorf("workload: point %d: minute %d not after %d", i, p.Minute, prev)
		}
		prev = p.Minute
	}
	return &Trace{Start: start, End: end, Points: points}, nil
}

// RPSAt returns the request rate ruling at a minute. Minutes before
// the first change point see the first point's rate (the trace's
// best statement about the past), minutes after the last see the
// last's.
func (t *Trace) RPSAt(minute int64) float64 {
	i := sort.Search(len(t.Points), func(i int) bool {
		return t.Points[i].Minute > minute
	}) - 1
	if i < 0 {
		i = 0
	}
	return t.Points[i].RPS
}

// Scale returns a copy of the trace with every rate inside
// [from, until) multiplied by factor — the chaos layer's flash-crowd
// overlay. Change points are inserted at the window edges so rates
// outside the window are untouched. A window that misses the span
// entirely (or a factor of 1) returns the receiver unchanged.
func (t *Trace) Scale(from, until int64, factor float64) *Trace {
	if until <= t.Start || from >= t.End || from >= until || factor == 1 {
		return t
	}
	// Rebuild over the merged change points: the trace's own plus the
	// window edges, each carrying the (possibly scaled) ruling rate.
	minutes := make([]int64, 0, len(t.Points)+2)
	for _, p := range t.Points {
		minutes = append(minutes, p.Minute)
	}
	minutes = append(minutes, from, until)
	sort.Slice(minutes, func(i, j int) bool { return minutes[i] < minutes[j] })
	out := &Trace{Start: t.Start, End: t.End, Points: make([]Point, 0, len(minutes))}
	for i, m := range minutes {
		if m < t.Points[0].Minute || m >= t.End || (i > 0 && m == minutes[i-1]) {
			continue
		}
		r := t.RPSAt(m)
		if m >= from && m < until {
			r *= factor
		}
		out.Points = append(out.Points, Point{Minute: m, RPS: r})
	}
	return out
}
