package experiments

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/modelcache"
	"repro/internal/replay"
	"repro/internal/strategy"
)

// TestSweepParallelMatchesSequential is the determinism regression test
// for the worker-pool runner: the same Env swept sequentially and at
// Jobs >= 4 must produce identical rows in identical order, because
// every cell seeds its own provider and shares only the read-only trace
// set. Run under -race this also exercises the pool for data races.
func TestSweepParallelMatchesSequential(t *testing.T) {
	seq := QuickEnv()
	seq.Jobs = 1
	par := QuickEnv()
	par.Jobs = 6

	a, err := seq.Sweep(LockSpec(), "lock")
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Sweep(LockSpec(), "lock")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel sweep diverges from sequential:\nseq: %+v\npar: %+v", a, b)
	}
	if len(a) != len(SweepIntervals)*4 {
		t.Fatalf("sweep produced %d rows, want %d", len(a), len(SweepIntervals)*4)
	}
}

// TestSweepSharedCacheAcrossWorkers drives a parallel sweep through one
// explicit shared model cache and checks that sharing actually happened:
// the sweep's Jupiter cells at intervals dividing the weekly retrain
// cadence request identical (zone, window) models, so the cache must
// report hits, and the rows must still match an uncached sequential
// sweep exactly. Run under -race this is the shared-provider
// concurrency regression test.
func TestSweepSharedCacheAcrossWorkers(t *testing.T) {
	cached := QuickEnv()
	cached.Jobs = 6
	cached.Models = modelcache.New()

	plain := QuickEnv()
	plain.Jobs = 1

	a, err := cached.Sweep(LockSpec(), "lock")
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.Sweep(LockSpec(), "lock")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shared-cache sweep diverges from per-sweep-cache sequential:\ncached: %+v\nplain:  %+v", a, b)
	}

	s := cached.Models.Stats()
	if s.Misses == 0 {
		t.Fatal("shared cache trained nothing")
	}
	if s.Hits == 0 {
		t.Fatalf("shared cache saw no hits across sweep cells: %+v", s)
	}
	if s.ScratchTrains+s.IncrementalTrains != s.Misses {
		t.Fatalf("trains (%d scratch + %d incremental) != misses (%d)",
			s.ScratchTrains, s.IncrementalTrains, s.Misses)
	}
}

// dispatched arms env to record, in call order, the interval of every
// cell it replays.
func dispatched(env *Env) func() []int64 {
	var mu sync.Mutex
	var got []int64
	env.Observe = func(_ strategy.ServiceSpec, _ string, hours int64) []engine.Observer {
		mu.Lock()
		got = append(got, hours)
		mu.Unlock()
		return nil
	}
	return func() []int64 { return got }
}

// TestSweepDispatchesLongestIntervalFirst pins the dispatch order that
// lets every shorter cell read a shared model's longer forecast table:
// a sequential sweep replays its cells longest interval first, the
// roster's order kept within an interval, while the rows stay in the
// grid's interval-major order. ReplayIntervals dispatches its input the
// same way and returns results in input order, the same at any Jobs.
func TestSweepDispatchesLongestIntervalFirst(t *testing.T) {
	env := QuickEnv()
	env.Jobs = 1
	order := dispatched(&env)
	rows, err := env.Sweep(LockSpec(), "lock")
	if err != nil {
		t.Fatal(err)
	}
	var want, grid []int64
	for i := len(SweepIntervals) - 1; i >= 0; i-- {
		for range sweepSpecs {
			want = append(want, SweepIntervals[i])
		}
	}
	for _, r := range rows {
		grid = append(grid, r.IntervalHours)
	}
	if got := order(); !slices.Equal(got, want) {
		t.Fatalf("cells replayed at intervals %v, want longest first %v", got, want)
	}
	if slices.Reverse(want); !slices.Equal(grid, want) {
		t.Fatalf("rows at intervals %v, want grid order %v", grid, want)
	}

	builders, err := BuildSpecs([]string{"jupiter"})
	if err != nil {
		t.Fatal(err)
	}
	intervals := []int64{12, 1, 6}
	var first []*replay.Result
	for _, jobs := range []int{1, 3} {
		env := QuickEnv()
		env.Jobs = jobs
		order := dispatched(&env)
		res, err := env.ReplayIntervals(LockSpec(), builders[0], intervals)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.IntervalMinutes != intervals[i]*60 {
				t.Fatalf("Jobs=%d: result %d at %d min, want input order %v h", jobs, i, r.IntervalMinutes, intervals)
			}
		}
		if jobs == 1 {
			if got := order(); !slices.Equal(got, []int64{12, 6, 1}) {
				t.Fatalf("ReplayIntervals replayed %v, want 12, 6, 1", got)
			}
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Fatalf("ReplayIntervals at Jobs=%d differs from Jobs=1", jobs)
		}
	}
}

func TestForEachCellPreservesOrderAndErrors(t *testing.T) {
	for _, jobs := range []int{1, 3, 16} {
		out := make([]int, 50)
		if err := forEachCell(len(out), jobs, func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: slot %d = %d, want %d", jobs, i, v, i*i)
			}
		}
	}

	// The FIRST error by index wins, regardless of which worker finishes
	// first — parallel failures must look like sequential ones.
	sentinel3 := errors.New("cell 3")
	sentinel7 := errors.New("cell 7")
	err := forEachCell(10, 4, func(i int) error {
		switch i {
		case 3:
			return sentinel3
		case 7:
			return sentinel7
		}
		return nil
	})
	if !errors.Is(err, sentinel3) {
		t.Fatalf("got %v, want first-by-index error %v", err, sentinel3)
	}

	// Zero cells and jobs beyond n are fine.
	var calls atomic.Int64
	if err := forEachCell(0, 8, func(int) error { calls.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := forEachCell(2, 100, func(int) error { calls.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("ran %d cells, want 2", calls.Load())
	}
}

// TestForEachCellIsolatesPanics pins that one panicking cell surfaces
// as an error naming the cell — with a stack — while every other cell
// of the pool still runs to completion.
func TestForEachCellIsolatesPanics(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		var ran [8]atomic.Bool
		err := forEachCell(len(ran), jobs, func(i int) error {
			if i == 2 {
				panic("boom at cell 2")
			}
			ran[i].Store(true)
			return nil
		})
		if err == nil {
			t.Fatalf("jobs=%d: panic swallowed", jobs)
		}
		msg := err.Error()
		if !strings.Contains(msg, "cell 2 panicked") || !strings.Contains(msg, "boom at cell 2") {
			t.Fatalf("jobs=%d: error lacks cell identity: %v", jobs, err)
		}
		if !strings.Contains(msg, "forEachCell") && !strings.Contains(msg, "goroutine") {
			t.Fatalf("jobs=%d: error lacks a stack trace: %v", jobs, err)
		}
		if jobs > 1 {
			// The worker pool finishes the remaining cells.
			for i := range ran {
				if i != 2 && !ran[i].Load() {
					t.Fatalf("jobs=%d: cell %d never ran after the panic", jobs, i)
				}
			}
		}
	}
}
