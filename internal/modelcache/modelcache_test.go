package modelcache

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/market"
	"repro/internal/smc"
	"repro/internal/trace"
)

const week = int64(7 * 24 * 60)

func genTrace(t *testing.T, weeks int64) *trace.Trace {
	t.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: 11, Type: market.M1Small,
		Zones: []string{"us-east-1a"},
		Start: 0, End: weeks * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set.ByZone["us-east-1a"]
}

// feed stands in for a market view: PriceHistory clamps the way
// cloud.Provider's does (to the trace start, and to cut — the provider's
// now, or the minute a stale feed stopped), and records every minute a
// fetch asked history from.
type feed struct {
	tr    *trace.Trace
	cut   int64
	delay time.Duration
	asked []int64
}

func (f *feed) PriceHistory(from, to int64) *trace.Trace {
	from = max(from, f.tr.Start)
	to = max(min(to, f.cut), from)
	return f.tr.Window(from, to)
}

func (f *feed) fetch(k Key) func(int64) (*trace.Trace, error) {
	return func(since int64) (*trace.Trace, error) {
		f.asked = append(f.asked, since)
		time.Sleep(f.delay)
		return f.PriceHistory(since, k.Until), nil
	}
}

// get trains k through GetFrom and returns the minutes the fetch was
// asked from.
func (f *feed) get(t *testing.T, c *Cache, k Key) (*smc.Model, Outcome, []int64) {
	t.Helper()
	f.asked = nil
	m, out, err := c.GetFrom(k, f.fetch(k))
	if err != nil {
		t.Fatalf("GetFrom %+v: %v", k, err)
	}
	return m, out, f.asked
}

// requireScratch holds a model to what a from-scratch Estimator over the
// feed's PriceHistory(From, Until) yields: a deeply equal model (neither
// has answered a query yet, so neither holds a forecast table) and a
// deeply equal forecast: the same occupancy and out-of-bid table.
func (f *feed) requireScratch(t *testing.T, where string, m *smc.Model, k Key) {
	t.Helper()
	hist := f.PriceHistory(k.From, k.Until)
	scratch := smc.NewEstimator(smc.DefaultMaxSojourn)
	scratch.Observe(hist)
	want, err := scratch.Model()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("%s: model differs from from-scratch estimation over [%d, %d)", where, hist.Start, hist.End)
	}
	cur := hist.PriceAt(hist.End - 1)
	got, err := m.Forecast(cur, 7, 360)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := want.Forecast(cur, 7, 360)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: forecast differs from the from-scratch model's", where)
	}
}

func TestGetTrainsOnceThenHits(t *testing.T) {
	tr := genTrace(t, 4)
	c := New()
	k := Key{Zone: "us-east-1a", From: 0, Until: 2 * week}
	var fetches atomic.Int64
	fetch := func() (*trace.Trace, error) {
		fetches.Add(1)
		return tr.Window(0, 2*week), nil
	}

	m1, out1, err := c.Get(k, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Hit {
		t.Fatal("first Get reported a hit")
	}
	m2, out2, err := c.Get(k, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Hit {
		t.Fatal("second Get missed")
	}
	if m1 != m2 {
		t.Fatal("hit returned a different model")
	}
	if n := fetches.Load(); n != 1 {
		t.Fatalf("fetch called %d times, want 1", n)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.ScratchTrains != 1 || s.IncrementalTrains != 0 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 scratch", s)
	}
	if len(c.entries) != 1 {
		t.Fatalf("%d entries, want 1", len(c.entries))
	}
}

// A forward-sliding retrain of the same series advances the incremental
// estimator, and the result matches from-scratch estimation bit for bit.
func TestIncrementalRetrainMatchesScratch(t *testing.T) {
	tr := genTrace(t, 6)
	c := New()
	win := func(from, until int64) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) { return tr.Window(from, until), nil }
	}

	if _, out, err := c.Get(Key{Zone: "a", From: 0, Until: 3 * week}, win(0, 3*week)); err != nil || out.Incremental {
		t.Fatalf("first train: err %v, incremental %v", err, out.Incremental)
	}
	m, out, err := c.Get(Key{Zone: "a", From: week, Until: 4 * week}, win(week, 4*week))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Incremental {
		t.Fatal("forward-sliding retrain did not use the incremental path")
	}

	scratch := smc.NewEstimator(0)
	scratch.Observe(tr.Window(week, 4*week))
	want, err := scratch.Model()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatal("incremental model differs from from-scratch estimation")
	}

	s := c.Stats()
	if s.IncrementalTrains != 1 || s.ScratchTrains != 1 {
		t.Fatalf("stats %+v, want 1 incremental / 1 scratch", s)
	}

	// Through GetFrom the retrain fetches the week it reads: one call,
	// from the series' previous until and never earlier. Six weeks of
	// trace under a 13-week window — every From precedes the trace start,
	// every clamped window starts at it — continue the series all the same.
	for _, window := range []int64{3 * week, 13 * week} {
		f := &feed{tr: tr, cut: tr.End}
		c := New()
		prev := int64(-1)
		for until := 3 * week; until <= 6*week; until += week / 2 {
			f.cut = until // the provider's now
			k := Key{Zone: "a", From: until - window, Until: until}
			m, out, asked := f.get(t, c, k)
			if prev < 0 {
				if out.Incremental || !slices.Equal(asked, []int64{k.From}) {
					t.Fatalf("window %d: first train asked from %v (incremental %v), want the whole window once", window, asked, out.Incremental)
				}
			} else if !out.Incremental || !slices.Equal(asked, []int64{prev}) {
				t.Fatalf("window %d until %d: retrain asked from %v (incremental %v), want once from the previous until %d", window, until, asked, out.Incremental, prev)
			}
			f.requireScratch(t, "incremental retrain", m, k)
			prev = until
		}
	}
}

// A request behind the series position trains standalone and leaves the
// series where it is, so the next forward retrain is still incremental.
func TestBehindSeriesRequestDoesNotDisturbIt(t *testing.T) {
	tr := genTrace(t, 6)
	c := New()
	win := func(from, until int64) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) { return tr.Window(from, until), nil }
	}

	if _, _, err := c.Get(Key{Zone: "a", From: week, Until: 4 * week}, win(week, 4*week)); err != nil {
		t.Fatal(err)
	}
	// Behind the series (ends before 4w): standalone scratch training.
	m, out, err := c.Get(Key{Zone: "a", From: 0, Until: 2 * week}, win(0, 2*week))
	if err != nil {
		t.Fatal(err)
	}
	if out.Hit || out.Incremental {
		t.Fatalf("behind-series request outcome %+v, want scratch miss", out)
	}
	scratch := smc.NewEstimator(0)
	scratch.Observe(tr.Window(0, 2*week))
	want, err := scratch.Model()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatal("standalone model differs from from-scratch estimation")
	}
	// The series still sits at 4w and keeps advancing incrementally.
	if _, out, err := c.Get(Key{Zone: "a", From: 2 * week, Until: 5 * week}, win(2*week, 5*week)); err != nil || !out.Incremental {
		t.Fatalf("series lost its position: err %v, outcome %+v", err, out)
	}
}

// TestWholeWindowFallbacks: every window that does not continue its
// series is trained on one whole-window fetch, and the model is the one
// a from-scratch estimator over that window's history yields — a
// request behind the series (which stays put), one that starts earlier
// than the last, one disjoint from the series (whose estimator rebuilds
// over it inside Advance, which still counts as incremental). A
// continuing window whose suffix comes back with nothing in it — the
// feed went stale before the series' until, or exactly at it — is the
// one case that fetches twice: the suffix, then the window.
func TestWholeWindowFallbacks(t *testing.T) {
	tr := genTrace(t, 12)
	f := &feed{tr: tr, cut: tr.End}
	c := New()
	at := func(from, until int64) Key { return Key{Zone: "a", From: from, Until: until} }
	seat := at(week, 4*week)
	f.get(t, c, seat)

	steps := []struct {
		name        string
		k           Key
		cut         int64 // where the feed stops, if before k.Until
		asked       []int64
		incremental bool
	}{
		{name: "behind the series", k: at(0, 2*week), asked: []int64{0}},
		{name: "series undisturbed", k: at(2*week, 5*week), asked: []int64{4 * week}, incremental: true},
		{name: "start moved back", k: at(week, 5*week+60), asked: []int64{week}},
		{name: "series rebuilt there", k: at(week, 5*week+120), asked: []int64{5*week + 60}, incremental: true},
		{name: "stale before the series", k: at(2*week, 6*week), cut: 5 * week, asked: []int64{5*week + 120, 2 * week}},
		{name: "stale at the series", k: at(2*week, 6*week+60), cut: 5*week + 120, asked: []int64{5*week + 120, 2 * week}, incremental: true},
		{name: "feed back", k: at(2*week, 6*week+120), asked: []int64{5*week + 120}, incremental: true},
		{name: "disjoint", k: at(8*week, 10*week), asked: []int64{8 * week}, incremental: true},
		{name: "series re-seated", k: at(9*week, 11*week), asked: []int64{10 * week}, incremental: true},
	}
	for _, st := range steps {
		f.cut = tr.End
		if st.cut != 0 {
			f.cut = st.cut
		}
		m, out, asked := f.get(t, c, st.k)
		if out.Hit || out.Incremental != st.incremental || !slices.Equal(asked, st.asked) {
			t.Fatalf("%s: outcome %+v, history asked from %v; want incremental %v, asked from %v", st.name, out, asked, st.incremental, st.asked)
		}
		f.requireScratch(t, st.name, m, st.k)
	}
}

// TestTrainTimeExcludesFetch: Outcome.TrainTime is estimation only,
// however long the history took to arrive — on the suffix path and on
// the path that fetches twice.
func TestTrainTimeExcludesFetch(t *testing.T) {
	tr := genTrace(t, 6)
	f := &feed{tr: tr, cut: tr.End, delay: 150 * time.Millisecond}
	c := New()
	f.get(t, c, Key{Zone: "a", From: 0, Until: 3 * week})
	_, out, asked := f.get(t, c, Key{Zone: "a", From: week, Until: 4 * week})
	if !out.Incremental || len(asked) != 1 || out.TrainTime >= f.delay {
		t.Fatalf("suffix retrain: outcome %+v after %d fetches of %v each", out, len(asked), f.delay)
	}
	f.cut = 3 * week // stale: the suffix is empty, the window is fetched too
	_, out, asked = f.get(t, c, Key{Zone: "a", From: 2 * week, Until: 5 * week})
	if len(asked) != 2 || out.TrainTime >= f.delay {
		t.Fatalf("stale retrain: outcome %+v after %d fetches of %v each", out, len(asked), f.delay)
	}
}

// TestConcurrentSeriesWalkers: four sweep cells walk one series through
// a shared cache, each retraining weekly at its own offset, so that a
// request finds the series behind it, ahead of it or re-seated by a
// neighbour, and fetches under the series lock while the others wait.
// Whatever the interleaving, every model is the from-scratch one.
func TestConcurrentSeriesWalkers(t *testing.T) {
	tr := genTrace(t, 10)
	c := New()
	type trained struct {
		k Key
		m *smc.Model
	}
	var cells [4][]trained
	var wg sync.WaitGroup
	for cell := range cells {
		wg.Add(1)
		go func(cell int) {
			defer wg.Done()
			f := &feed{tr: tr}
			for until := 4*week + int64(cell)*90; until < 10*week; until += week {
				f.cut = until
				k := Key{Zone: "a", From: until - 4*week, Until: until}
				m, _, err := c.GetFrom(k, f.fetch(k))
				if err != nil {
					t.Error(err)
					return
				}
				cells[cell] = append(cells[cell], trained{k, m})
			}
		}(cell)
	}
	wg.Wait()
	for _, models := range cells {
		for _, tm := range models {
			(&feed{tr: tr, cut: tm.k.Until}).requireScratch(t, "walker", tm.m, tm.k)
		}
	}
	if s := c.Stats(); s.Misses != 4*6 || s.IncrementalTrains == 0 {
		t.Fatalf("stats %+v, want 24 misses, some of them incremental", s)
	}
}

func TestErrorsAreCachedPerKey(t *testing.T) {
	c := New()
	boom := errors.New("boom")
	var fetches atomic.Int64
	k := Key{Zone: "a", From: 0, Until: week}
	fetch := func() (*trace.Trace, error) {
		fetches.Add(1)
		return nil, boom
	}
	if _, _, err := c.Get(k, fetch); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	_, out, err := c.Get(k, fetch)
	if !errors.Is(err, boom) {
		t.Fatalf("cached err = %v, want boom", err)
	}
	if !out.Hit {
		t.Fatal("cached error not reported as a hit")
	}
	if n := fetches.Load(); n != 1 {
		t.Fatalf("fetch called %d times, want 1", n)
	}
	s := c.Stats()
	if s.ScratchTrains != 0 || s.IncrementalTrains != 0 {
		t.Fatalf("failed training counted as trained: %+v", s)
	}
}

// Concurrent requesters of one key block on the in-flight training and
// share its result: exactly one fetch, one miss, the rest hits.
func TestConcurrentSingleFlight(t *testing.T) {
	tr := genTrace(t, 4)
	c := New()
	k := Key{Zone: "us-east-1a", From: 0, Until: 2 * week}
	var fetches atomic.Int64
	const workers = 16
	models := make([]*smc.Model, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m, _, err := c.Get(k, func() (*trace.Trace, error) {
				fetches.Add(1)
				return tr.Window(0, 2*week), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			models[w] = m
		}(w)
	}
	wg.Wait()
	if n := fetches.Load(); n != 1 {
		t.Fatalf("fetch called %d times, want 1", n)
	}
	for w := 1; w < workers; w++ {
		if models[w] != models[0] {
			t.Fatal("workers got different model instances")
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != workers-1 {
		t.Fatalf("stats %+v, want 1 miss / %d hits", s, workers-1)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1, ScratchTrains: 1}
	got := s.String()
	if got == "" {
		t.Fatal("empty stats string")
	}
	// The zero value must not divide by zero.
	_ = Stats{}.String()
}
