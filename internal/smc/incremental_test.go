package smc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// countsJSON dumps an estimator's counts in their canonical form
// (jsonModel, the cells in kernel order) so two can be compared byte
// for byte.
func countsJSON(t *testing.T, e *Estimator) []byte {
	t.Helper()
	kc := countsOf(e)
	jm := jsonModel{MaxSojourn: kc.maxSojourn, Out: kc.out}
	for _, p := range kc.prices {
		jm.Prices = append(jm.Prices, int64(p))
	}
	for _, c := range kc.cells {
		jm.Kernel = append(jm.Kernel, jsonKernelCell{From: c.from, To: c.to, Sojourn: c.k, Count: c.count})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(jm); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireMatchesScratch requires a windowed estimator's counts to dump
// to the bytes of a from-scratch estimator's over the same window, and
// the models the two freeze to be equal table for table, bit for bit.
func requireMatchesScratch(t *testing.T, where string, w *WindowedEstimator, scratch *Estimator) (inc, ref *Model) {
	t.Helper()
	if got, want := countsJSON(t, w.est), countsJSON(t, scratch); !bytes.Equal(got, want) {
		t.Fatalf("%s: incremental counts diverge from scratch\nincremental: %s\nscratch:     %s", where, got, want)
	}
	inc, err := w.Model()
	if err != nil {
		t.Fatal(err)
	}
	ref, err = scratch.Model()
	if err != nil {
		t.Fatal(err)
	}
	requireModelsEqual(t, where, inc, ref)
	return inc, ref
}

// TestWindowedEstimatorMatchesScratch is the incremental-vs-from-scratch
// equivalence pin: sliding a WindowedEstimator across a generated trace
// must leave counts — and therefore the frozen model, compared through
// its canonical dump — identical to an estimator trained from
// scratch on the same window. The window schedule mimics the bidding
// framework: a 13-unit training window advanced by irregular steps,
// including zero-length slides and a jump past the whole window.
func TestWindowedEstimatorMatchesScratch(t *testing.T) {
	for _, seed := range []uint64{1, 7, 2014} {
		set, err := trace.Generate(trace.GenConfig{
			Seed: seed, Type: market.M1Small,
			Zones: market.ExperimentZones()[:3],
			Start: 0, End: 20 * 7 * 24 * 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		const window = 13 * 24 * 60
		steps := []int64{0, 1, 59, 60, 1440, 1440, 7, 10080, 3 * 24 * 60, 14 * 24 * 60, 1, 25 * 24 * 60}
		for _, zone := range set.Zones() {
			tr := set.ByZone[zone]
			w := NewWindowedEstimator(0)
			now := tr.Start + window
			for stepIdx, step := range steps {
				now += step
				from := now - window
				if from < tr.Start {
					from = tr.Start
				}
				hist := tr.Window(from, now)
				if err := w.Advance(hist, hist.Start, hist.End); err != nil {
					t.Fatalf("seed %d zone %s step %d: %v", seed, zone, stepIdx, err)
				}
				scratch := NewEstimator(0)
				scratch.Observe(hist)
				if got, want := w.est.observations, scratch.observations; got != want {
					t.Fatalf("seed %d zone %s step %d: %d observations incrementally, %d from scratch",
						seed, zone, stepIdx, got, want)
				}
				if w.est.observations == 0 {
					continue
				}
				requireMatchesScratch(t, fmt.Sprintf("seed %d zone %s step %d", seed, zone, stepIdx), w, scratch)
			}
		}
	}
}

// TestWindowedEstimatorSmallSojournCap exercises the clamp interaction:
// with a tiny sojourn cap, truncation at the window edge and the clamp
// collapse many distinct sojourns onto the cap, and eviction must
// subtract exactly what was added.
func TestWindowedEstimatorSmallSojournCap(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 99, Type: market.M1Small,
		Zones: market.ExperimentZones()[:1],
		Start: 0, End: 6 * 7 * 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := set.ByZone[set.Zones()[0]]
	const window = 3 * 24 * 60
	w := NewWindowedEstimator(30)
	for now := tr.Start + window; now < tr.End; now += 777 {
		from := now - window
		hist := tr.Window(from, now)
		if err := w.Advance(hist, hist.Start, hist.End); err != nil {
			t.Fatal(err)
		}
		scratch := NewEstimator(30)
		scratch.Observe(hist)
		if w.est.observations == 0 {
			if scratch.observations != 0 {
				t.Fatalf("now %d: incremental empty, scratch has %d", now, scratch.observations)
			}
			continue
		}
		requireMatchesScratch(t, fmt.Sprintf("now %d", now), w, scratch)
	}
}

// TestWindowedEstimatorRejectsBadWindows pins the forward-only contract.
func TestWindowedEstimatorRejectsBadWindows(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 5, Type: market.M1Small,
		Zones: market.ExperimentZones()[:1],
		Start: 0, End: 4 * 7 * 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := set.ByZone[set.Zones()[0]]
	w := NewWindowedEstimator(0)
	if err := w.Advance(tr.Window(1000, 5000), 1000, 5000); err != nil {
		t.Fatal(err)
	}
	if err := w.Advance(tr.Window(500, 6000), 500, 6000); err == nil {
		t.Fatal("window start moved backward, want error")
	}
	if err := w.Advance(tr.Window(1000, 4000), 1000, 4000); err == nil {
		t.Fatal("window end moved backward, want error")
	}
	if err := w.Advance(tr.Window(2000, 5000), 1500, 6000); err == nil {
		t.Fatal("history not covering window, want error")
	}
	if err := w.Advance(nil, 2000, 6000); err == nil {
		t.Fatal("nil trace, want error")
	}
	// A continuing window reads nothing before the previous until, so the
	// suffix from there covers it; one that starts later leaves a hole.
	if err := w.Advance(tr.Window(5500, 6000), 1500, 6000); err == nil {
		t.Fatal("suffix starting past the previous until, want error")
	}
	if err := w.Advance(tr.Window(5000, 6000), 1500, 6000); err != nil {
		t.Fatalf("suffix from the previous until: %v", err)
	}
	// A window past the old one rebuilds, and needs all of itself.
	if err := w.Advance(tr.Window(7000, 8000), 6500, 8000); err == nil {
		t.Fatal("suffix for a window that does not continue the last, want error")
	}
	// A forward jump past the whole window is legal (plain rebuild).
	if err := w.Advance(tr.Window(20000, 30000), 20000, 30000); err != nil {
		t.Fatal(err)
	}
}

// TestModelConcurrentForecasts drives one shared model from many
// goroutines at mixed horizons — the modelcache sharing pattern — and
// checks the answers match a single-goroutine replay of the same
// queries. Run with -race this pins the Model concurrency contract.
func TestModelConcurrentForecasts(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 3, Type: market.M1Small,
		Zones: market.ExperimentZones()[:1],
		Start: 0, End: 8 * 7 * 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := set.ByZone[set.Zones()[0]]
	e := NewEstimator(0)
	e.Observe(tr)
	shared, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEstimator(0)
	e2.Observe(tr)
	ref, err := e2.Model()
	if err != nil {
		t.Fatal(err)
	}

	cur := tr.PriceAt(tr.End - 1)
	horizons := []int64{60, 180, 360, 540, 720}
	want := make([]float64, len(horizons))
	for i, h := range horizons {
		f, err := ref.Forecast(cur, 10, h)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = f.FailureProbability(cur, 0.01)
	}

	const workers = 8
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			got[wkr] = make([]float64, len(horizons))
			// Stagger horizon order so goroutines race the lazy builds.
			for off := 0; off < len(horizons); off++ {
				i := (off + wkr) % len(horizons)
				f, err := shared.Forecast(cur, 10, horizons[i])
				if err != nil {
					return
				}
				got[wkr][i] = f.FailureProbability(cur, 0.01)
				if _, err := shared.Stationary(); err != nil {
					return
				}
			}
		}(wkr)
	}
	wg.Wait()
	for wkr := range got {
		if got[wkr] == nil {
			t.Fatalf("worker %d failed", wkr)
		}
		for i := range horizons {
			if got[wkr][i] != want[i] {
				t.Errorf("worker %d horizon %d: FP %v, want %v (order-dependent lazy state?)",
					wkr, horizons[i], got[wkr][i], want[i])
			}
		}
	}
}

// allocated reports the bytes and heap objects f allocates.
func allocated(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestAdvanceCostIndependentOfWindow holds the sliding path to its
// O(new + evicted) claim where a test can: the bytes and objects a
// one-week slide plus Model() allocates are the same under a 13-week
// and a 26-week window. The trace repeats one generated week, so both
// windows hold the same kernel cells and Model() costs the same; what
// is left to differ is whatever Advance does in proportion to the
// window — which used to be a copy of all of its runs.
func TestAdvanceCostIndependentOfWindow(t *testing.T) {
	const week = 7 * 24 * 60
	set, err := trace.Generate(trace.GenConfig{
		Seed: 5, Type: market.M1Small, Zones: []string{"us-east-1a"}, Start: 0, End: week,
	})
	if err != nil {
		t.Fatal(err)
	}
	one := set.ByZone["us-east-1a"]
	const weeks = 26 + 60
	tr := &trace.Trace{Zone: one.Zone, Type: one.Type, Start: 0, End: weeks * week}
	for k := int64(0); k < weeks; k++ {
		for _, p := range one.Points {
			tr.Points = append(tr.Points, trace.PricePoint{Minute: p.Minute + k*week, Price: p.Price})
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	cost := func(window int64) (bytes, objects uint64) {
		w := NewWindowedEstimator(0)
		until := window * week
		if err := w.Advance(tr, 0, until); err != nil {
			t.Fatal(err)
		}
		// Every slide does the same work, so the cheapest of a few is
		// the one during which the runtime allocated nothing of its own.
		// The first ones, unmeasured, let the chunk list reach the size
		// it keeps.
		bytes, objects = math.MaxUint64, math.MaxUint64
		for i := int64(0); i < 2*window+8; i++ {
			until += week
			// The history is a view of the window, as the model cache
			// hands it over; making it is not the estimator's cost.
			hist := tr.Window(until-window*week, until)
			b, o := allocated(func() {
				if err := w.Advance(hist, hist.Start, hist.End); err != nil {
					t.Fatal(err)
				}
				if _, err := w.Model(); err != nil {
					t.Fatal(err)
				}
			})
			if i >= 2*window {
				bytes, objects = min(bytes, b), min(objects, o)
			}
		}
		return bytes, objects
	}
	b13, o13 := cost(13)
	b26, o26 := cost(26)
	t.Logf("a slide allocates %d B in %d objects under a 13-week window, %d B in %d under a 26-week one", b13, o13, b26, o26)
	within := func(a, b uint64) bool { return 50*max(a, b) <= 51*min(a, b) }
	if !within(b13, b26) || !within(o13, o26) {
		t.Fatal("Advance costs in proportion to the window")
	}
}

// TestScratchTrainAllocBudget bounds what training from nothing
// allocates over a six-week window — Observe and Model(), and a fresh
// WindowedEstimator's first Advance and Model(): the miss of every pool
// a replay meets first. The budget is the measured 35.1 kB (the
// per-level sojourn slots, the counters and the frozen sojourn tables)
// plus 10 %; a copy of the kernel kept beside the tables put it at
// 43.3 kB, and a copy of every transition as a 16-byte record put the
// windowed train at 84.5 kB.
func TestScratchTrainAllocBudget(t *testing.T) {
	const week = 7 * 24 * 60
	const budget = 38_600
	set, err := trace.Generate(trace.GenConfig{
		Seed: 5, Type: market.M1Small, Zones: []string{"us-east-1a"}, Start: 0, End: 6 * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := set.ByZone["us-east-1a"]
	for _, c := range []struct {
		name  string
		train func() (*Model, error)
	}{
		{"scratch", func() (*Model, error) {
			e := NewEstimator(0)
			e.Observe(tr)
			return e.Model()
		}},
		{"windowed scratch", func() (*Model, error) {
			w := NewWindowedEstimator(0)
			if err := w.Advance(tr, tr.Start, tr.End); err != nil {
				return nil, err
			}
			return w.Model()
		}},
	} {
		best := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			bytes, _ := allocated(func() {
				if _, err := c.train(); err != nil {
					t.Fatal(err)
				}
			})
			best = min(best, bytes)
		}
		t.Logf("a %s train allocates %d B", c.name, best)
		if best > budget {
			t.Fatalf("a %s train allocates %d B, budget %d", c.name, best, budget)
		}
	}
}

// TestRetrainAllocBudget bounds what one retrain allocates — a one-week
// slide of the 13-week window, Model(), and the first Forecast with its
// fresh-profile build. The budget is the measured 122 kB (the profile
// table and the sojourn tables, which the model keeps) plus 10 %; a
// kernel copy, 24-byte window records and dense survival arrays put it
// at 152 kB, and dense destination rows on top of those at 171 kB.
// The best of a few retrains counts, since a collection — or the race
// detector — may empty the scratch pool between two of them.
func TestRetrainAllocBudget(t *testing.T) {
	const week = 7 * 24 * 60
	const budget = 134_200
	set, err := trace.Generate(trace.GenConfig{
		Seed: 5, Type: market.M1Small, Zones: []string{"us-east-1a"}, Start: 0, End: (13 + 6) * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := set.ByZone["us-east-1a"]
	w := NewWindowedEstimator(0)
	until := int64(13 * week)
	if err := w.Advance(tr, 0, until); err != nil {
		t.Fatal(err)
	}
	best := uint64(math.MaxUint64)
	for i := 0; i < 6; i++ {
		until += week
		bytes, _ := allocated(func() {
			if err := w.Advance(tr, until-13*week, until); err != nil {
				t.Fatal(err)
			}
			m, err := w.Model()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Forecast(tr.PriceAt(until-1), 5, 360); err != nil {
				t.Fatal(err)
			}
		})
		if i > 0 { // the first retrain fills the pool
			best = min(best, bytes)
		}
	}
	t.Logf("best retrain allocates %d B", best)
	if best > budget {
		t.Fatalf("a retrain allocates %d B, budget %d", best, budget)
	}
}
