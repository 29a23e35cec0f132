package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/stats"
)

// digest hashes everything a rep's replays returned, per cell in order.
func digest(cells []cell) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, c := range cells {
		h.Write([]byte(c.label))
		word(uint64(c.cost))
		word(math.Float64bits(c.availability))
		word(uint64(c.total))
		word(uint64(c.down))
		word(uint64(c.decisions))
		word(uint64(c.spot))
		word(uint64(c.od))
		word(uint64(c.outOfBid))
		word(uint64(c.failedReq))
		word(math.Float64bits(c.meanGroup))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gate is the correctness gate of one workload run: it counts attempted
// and failed ops across every rep of every pass and pins all of them to
// the first rep's digest.
type gate struct {
	cells     int // ops per rep
	attempted int
	failed    int
	digest    string
	costUSD   float64
	downMin   int64
	firstErr  error
}

func (g *gate) fail(ops int, err error) {
	g.failed += ops
	if g.firstErr == nil {
		g.firstErr = err
	}
}

// run executes one rep, converting a panic into a failed rep, and checks
// its cells. It returns the cells of a rep that ran to completion.
func (g *gate) run(b *bound, tr *tracer) []cell {
	g.cells = b.cells
	g.attempted += b.cells
	cells, err := safeRep(b, tr)
	if err != nil {
		g.fail(b.cells, err)
		return nil
	}
	if len(cells) != b.cells {
		g.fail(b.cells, fmt.Errorf("rep returned %d cells, want %d", len(cells), b.cells))
		return nil
	}
	for _, c := range cells {
		switch {
		case c.cost < 0:
			g.fail(1, fmt.Errorf("%s: negative cost %v", c.label, c.cost))
		case !(c.availability >= 0 && c.availability <= 1):
			g.fail(1, fmt.Errorf("%s: availability %v outside [0,1]", c.label, c.availability))
		case c.total != b.span:
			g.fail(1, fmt.Errorf("%s: accounted %d minutes, configured %d", c.label, c.total, b.span))
		}
	}
	d := digest(cells)
	if g.digest == "" {
		g.digest = d
		for _, c := range cells {
			g.costUSD += c.cost.Dollars()
			g.downMin += c.down
		}
	} else if d != g.digest {
		g.fail(b.cells, fmt.Errorf("rep digest %s differs from first rep's %s", d, g.digest))
	}
	return cells
}

func safeRep(b *bound, tr *tracer) (cells []cell, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rep panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return b.rep(tr)
}

// expect pins the first rep against the values recorded for the default
// seed; other seeds have nothing recorded and pass.
func (g *gate) expect(want *expectation) {
	if want == nil || g.digest == "" {
		return
	}
	if g.digest != want.Digest || g.costUSD != want.CostUSD || g.downMin != want.DownMin {
		g.fail(g.cells, fmt.Errorf("result (digest %s, cost %v, down %d) differs from recorded (digest %s, cost %v, down %d)",
			g.digest, g.costUSD, g.downMin, want.Digest, want.CostUSD, want.DownMin))
	}
}

// sample is what one timed rep cost the host.
type sample struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	simMin  int64
	gcCount uint32
	gcPause uint64
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedRep runs one rep between two host-resource readings taken
// outside the timed region.
func timedRep(g *gate, b *bound, tr *tracer) sample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	cells := g.run(b, tr)
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&m1)
	s := sample{
		wall: wall, cpu: cpu, alloc: m1.TotalAlloc - m0.TotalAlloc,
		gcCount: m1.NumGC - m0.NumGC, gcPause: m1.PauseTotalNs - m0.PauseTotalNs,
	}
	for _, c := range cells {
		s.simMin += c.total
	}
	return s
}

// pass is a closed loop of timed reps: the next rep is issued when the
// previous one returns, until the time box is spent (and at least
// minReps have run).
func pass(g *gate, b *bound, tr *tracer, box time.Duration, minReps int) []sample {
	var out []sample
	start := time.Now()
	for len(out) < minReps || time.Since(start) < box {
		if tr != nil {
			tr.startRep()
		}
		out = append(out, timedRep(g, b, tr))
		if tr != nil {
			tr.endRep()
		}
		if g.failed > 0 && len(out) >= minReps {
			break
		}
	}
	return out
}

// quantile is the p-quantile of v (0 for an empty sample).
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return stats.Percentile(s, p)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func medianOf(samples []sample, f func(sample) float64) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = f(s)
	}
	return median(v)
}

// endToEnd is the untraced pass: set the workload up several times
// (generation, encoding, a warm-up on the first market), then time reps
// of the last set-up for the box.
func endToEnd(w workloadDef, opt options, g *gate) (map[string]metric, error) {
	var b *bound
	var setupS []float64
	begin := time.Now()
	for i := 0; i < opt.setups || (i < 3*opt.setups && time.Since(begin) < opt.setupBudget); i++ {
		t0 := time.Now()
		var err error
		if b, err = w.bind(opt.seed, opt.sizeOf(w), opt.jobs); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if _, err := b.one(nil, 0); err != nil { // the warm-up
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	samples := pass(g, b, nil, opt.box, opt.minReps)
	if g.digest == "" {
		return nil, fmt.Errorf("%s: no rep completed: %w", w.name, g.firstErr)
	}
	return map[string]metric{
		"sim_min_per_s": {medianOf(samples, func(s sample) float64 { return float64(s.simMin) / s.wall.Seconds() }), "min/s"},
		"cpu_s":         {medianOf(samples, func(s sample) float64 { return s.cpu.Seconds() }), "s"},
		"alloc_mb":      {medianOf(samples, func(s sample) float64 { return float64(s.alloc) / 1e6 }), "MB"},
		"setup_s":       {median(setupS), "s"},
	}, nil
}
