package smc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// The pins of the flat kernel, the hop-compiled fresh-entry DP and the
// in-place sliding window against the code they replaced, which
// forecast_reference_test.go keeps verbatim.

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// denseRows expands a state's destination ranges into one n-wide row
// per duration. ok is false unless the ranges tile the flat list in
// order and each lists non-zero entries at ascending destinations.
func denseRows(sd *sojournData, n int) (rows []stateDist, ok bool) {
	at := 0
	for x := range sd.durations {
		if sd.first[x] != at {
			return nil, false
		}
		row, last := make(stateDist, n), -1
		for _, e := range sd.dests(x) {
			if e.to <= last || e.to >= n || e.g == 0 {
				return nil, false
			}
			row[e.to], last = e.g, e.to
		}
		rows, at = append(rows, row), sd.first[x+1]
	}
	return rows, at == len(sd.next)
}

// denseSurvival reads a state's stepwise survival through the cursor at
// every a in [0, maxDur+1] — the reference's dense P(K >= a), nil for an
// absorbing state. ok is false unless it holds one value per duration
// and reads 0 past maxDur+1 (an absorbing state: 1 everywhere).
func denseSurvival(sd *sojournData) (dense []float64, ok bool) {
	c := survivalCursor{sd: sd}
	if sd.absorbing {
		return nil, len(sd.survival) == 0 && c.at(0) == 1 && c.at(1<<40) == 1
	}
	for a := int64(0); a <= sd.maxDur+1; a++ {
		dense = append(dense, c.at(a))
	}
	return dense, len(sd.survival) == len(sd.durations) && c.at(sd.maxDur+2) == 0 && c.at(1<<40) == 0
}

// requireSojournEqual compares a state's sojourn tables with the dense
// reference's, the floats by bit pattern: every field, the survival
// read at every minute, and range by range the destination list
// against the dense row it stands for — a cell is listed exactly when
// the row holds a non-zero there.
func requireSojournEqual(t *testing.T, where string, got *sojournData, want *refSojournData) {
	t.Helper()
	rows, ok := denseRows(got, len(want.marginal))
	survival, sok := denseSurvival(got)
	ok = ok && sok && got.absorbing == want.absorbing && got.maxDur == want.maxDur &&
		slices.Equal(got.durations, want.durations) &&
		bitsEqual(got.pmf, want.pmf) && bitsEqual(survival, want.survival) &&
		bitsEqual(got.marginal, want.marginal) && len(rows) == len(want.next)
	for x := 0; ok && x < len(rows); x++ {
		ok = bitsEqual(rows[x], want.next[x])
	}
	if !ok {
		t.Fatalf("%s: sojourn tables differ\n got %+v\nwant %+v", where, got, want)
	}
}

// requireModelsEqual compares two frozen models field by field, the
// floats by bit pattern.
func requireModelsEqual(t *testing.T, where string, got, want *Model) {
	t.Helper()
	ok := got.maxSojourn == want.maxSojourn && slices.Equal(got.prices, want.prices) &&
		slices.Equal(got.out, want.out) && len(got.soj) == len(want.soj)
	for i := 0; ok && i < len(got.soj); i++ {
		a, b := &got.soj[i], &want.soj[i]
		ok = a.absorbing == b.absorbing && a.maxDur == b.maxDur &&
			slices.Equal(a.durations, b.durations) && slices.Equal(a.first, b.first) &&
			bitsEqual(a.pmf, b.pmf) && bitsEqual(a.survival, b.survival) && bitsEqual(a.marginal, b.marginal) &&
			slices.EqualFunc(a.next, b.next, func(x, y dest) bool {
				return x.to == y.to && math.Float64bits(x.g) == math.Float64bits(y.g)
			})
		if !ok {
			t.Fatalf("%s: state %d (%v) tables differ\n got %+v\nwant %+v", where, i, got.prices[i], *a, *b)
		}
	}
	if !ok {
		t.Fatalf("%s: models differ: %d states at cap %d, want %d at cap %d", where, len(got.prices), got.maxSojourn, len(want.prices), want.maxSojourn)
	}
}

// randomTrace draws a price history over a small alphabet of levels, so
// consecutive points often repeat a price (and must merge), with gaps
// from a minute to well past a day (beyond the default sojourn cap).
func randomTrace(rng *rand.Rand, levels int, points int) *trace.Trace {
	tr := &trace.Trace{Zone: "test-1a", Type: market.M1Small}
	prices := make([]market.Money, levels)
	for i := range prices {
		prices[i] = market.Money(1000 + 37*i + rng.Intn(30))
	}
	now := int64(rng.Intn(500))
	tr.Start = now
	for i := 0; i < points; i++ {
		tr.Points = append(tr.Points, trace.PricePoint{Minute: now, Price: prices[rng.Intn(levels)]})
		switch rng.Intn(10) {
		case 0:
			now += 1
		case 1:
			now += 1000 + rng.Int63n(2500)
		default:
			now += 1 + rng.Int63n(90)
		}
	}
	tr.End = now
	return tr
}

// oracleTraces is the training input of the kernel pins: generated
// markets of two instance types (hundreds of distinct sojourns per
// state, so the duration merge runs), random small-alphabet traces, and
// the 64- and 256-level traces of BenchmarkModelBuild.
func oracleTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, g := range []struct {
		seed uint64
		typ  market.InstanceType
	}{{2014, market.M1Small}, {7, market.M3Large}} {
		set, err := trace.Generate(trace.GenConfig{
			Seed: g.seed, Type: g.typ, Zones: market.ExperimentZones()[:4],
			Start: 0, End: 13 * 7 * 24 * 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, z := range set.Zones() {
			out = append(out, set.ByZone[z])
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		out = append(out, randomTrace(rng, 1+rng.Intn(7), 2+rng.Intn(900)))
	}
	// A price only the last run holds: a state no transition leaves.
	last := randomTrace(rng, 3, 300)
	last.Points = append(last.Points, trace.PricePoint{Minute: last.End, Price: 5000})
	last.End += 10
	out = append(out, last)
	for _, n := range []int{64, 256} {
		out = append(out, randomTrace(rand.New(rand.NewSource(int64(n))), n, 6000))
	}
	return out
}

// TestModelMatchesMapReference pins the flat Equation 13 counts to the
// map-of-maps ones: the same dumped bytes, the same Kernel and
// SojournPMF values; and the tables the freeze builds to the
// reference's, equal in every field.
func TestModelMatchesMapReference(t *testing.T) {
	for ti, tr := range oracleTraces(t) {
		for _, maxSojourn := range []int64{0, 45} {
			ref := newRefEstimator(maxSojourn)
			ref.Observe(tr)
			est := NewEstimator(maxSojourn)
			est.Observe(tr)
			if est.observations != ref.observations {
				t.Fatalf("trace %d: %d observations, reference %d", ti, est.observations, ref.observations)
			}
			rm, rerr := ref.Model()
			m, err := est.Model()
			if (err != nil) != (rerr != nil) {
				t.Fatalf("trace %d: Model error %v, reference %v", ti, err, rerr)
			}
			if err != nil {
				continue
			}
			var want bytes.Buffer
			if err := rm.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			if got := countsJSON(t, est); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("trace %d cap %d: count dump differs\n got %s\nwant %s", ti, maxSojourn, got, want.Bytes())
			}
			if !slices.Equal(m.prices, rm.prices) || !slices.Equal(m.out, rm.out) {
				t.Fatalf("trace %d cap %d: model over %v departing %v, reference %v departing %v", ti, maxSojourn, m.prices, m.out, rm.prices, rm.out)
			}
			kc := countsOf(est)
			probe := append([]market.Money{0, m.prices[0] + 1}, m.prices...)
			for i, si := range probe {
				for _, k := range []int64{0, 1, 2, 7, 45, 60, 1439, 1440, 5000} {
					if g, w := sojournPMF(kc, si, k), rm.SojournPMF(si, k); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("trace %d: SojournPMF(%v, %d) = %v, reference %v", ti, si, k, g, w)
					}
					for _, sj := range probe {
						if g, w := kernelProb(kc, si, sj, k), rm.Kernel(si, sj, k); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("trace %d: Kernel(%v, %v, %d) = %v, reference %v", ti, si, sj, k, g, w)
						}
					}
				}
				if i >= 2 {
					requireSojournEqual(t, "trained model", &m.soj[i-2], refSojourn(rm, i-2))
				}
			}
		}
	}
}

// randomModel counts random kernel cells over n states into an
// Estimator and into the map-based reference estimator, and freezes
// both: some states absorbing (each entered from a departing one, so it
// is a state of the model), some with more distinct sojourns than the
// merge cap, sojourns up to the one-day cap, and the occasional
// self-transition no trace yields.
func randomModel(rng *rand.Rand, n int) (*Model, *refModel) {
	prices := make([]market.Money, n)
	for i := range prices {
		prices[i] = market.Money(100*(i+1) + rng.Intn(50))
	}
	est, ref := NewEstimator(0), newRefEstimator(0)
	ids := make([]int32, n)
	for i, p := range prices {
		ids[i] = est.level(p)
	}
	add := func(i, j int, k, count int64) {
		for ; count > 0; count-- {
			est.add(ids[i], ids[j], k)
			ref.add(prices[i], prices[j], k)
		}
	}
	absorbing := make([]bool, n)
	for i := range absorbing {
		absorbing[i] = n > 1 && rng.Intn(5) == 0
	}
	absorbing[rng.Intn(n)] = false
	var departing []int
	for i := 0; i < n; i++ {
		if absorbing[i] {
			continue
		}
		departing = append(departing, i)
		durations := 1 + rng.Intn(30)
		if rng.Intn(4) == 0 {
			durations = 97 + rng.Intn(130)
		}
		span := int64(durations) + rng.Int63n(DefaultMaxSojourn-int64(durations)+1)
		for _, k := range rng.Perm(int(span))[:durations] {
			for _, j := range rng.Perm(n)[:1+rng.Intn(min(n, 3))] {
				if j == i && n > 1 && rng.Intn(8) != 0 {
					continue
				}
				add(i, j, int64(k)+1, 1+rng.Int63n(5))
			}
		}
	}
	for j, a := range absorbing {
		if a {
			add(departing[rng.Intn(len(departing))], j, 1+rng.Int63n(DefaultMaxSojourn), 1)
		}
	}
	m, err := est.Model()
	rm, rerr := ref.Model()
	if err != nil || rerr != nil || len(m.prices) != n {
		panic(fmt.Sprintf("random model over %d states: %v, reference %v", n, err, rerr))
	}
	return m, rm
}

// TestSojournRangesMatchDense: over seeded random models, every state's
// flat destination ranges are the dense reference rows with the zeros
// left out — states with few durations (one range per kernel row),
// states with more than 96 (the merge, whose buckets are built through
// the n-wide scratch and come out with up to n destinations) and
// absorbing states (no range at all).
func TestSojournRangesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	plain, merged, absorbing := 0, 0, 0
	for trial := 0; trial < 130; trial++ {
		m, rm := randomModel(rng, 1+trial%13)
		for i := range m.prices {
			sd := &m.soj[i]
			requireSojournEqual(t, fmt.Sprintf("trial %d state %d", trial, i), sd, refSojourn(rm, i))
			switch {
			case sd.absorbing:
				absorbing++
			case len(rm.kernel[i]) > 96:
				merged++
				if len(sd.durations) > 96 || len(sd.durations) == len(rm.kernel[i]) {
					t.Fatalf("trial %d state %d: %d kernel rows left %d durations", trial, i, len(rm.kernel[i]), len(sd.durations))
				}
			default:
				plain++
			}
		}
	}
	if plain < 50 || merged < 50 || absorbing < 50 {
		t.Fatalf("%d plain, %d merged and %d absorbing states: the generator no longer covers all three", plain, merged, absorbing)
	}
}

// trainBoth trains an Estimator and the map-based reference on tr and
// freezes both.
func trainBoth(t *testing.T, tr *trace.Trace) (*Model, *refModel) {
	t.Helper()
	est := NewEstimator(0)
	est.Observe(tr)
	m, err := est.Model()
	if err != nil {
		t.Fatal(err)
	}
	return m, refModelOn(t, tr)
}

// requireForecastsMatchReference compares the model's forecasts from
// cur with the reference's, by bit pattern, at every age and horizon
// given.
func requireForecastsMatchReference(t *testing.T, m *Model, rm *refModel, cur market.Money, ages, horizons []int64) {
	t.Helper()
	for _, h := range horizons {
		for _, age := range ages {
			got, err := m.Forecast(cur, age, h)
			if err != nil {
				t.Fatal(err)
			}
			if want := refForecast(rm, cur, age, h); !bitsEqual(got.avgOcc, want.avgOcc) {
				t.Fatalf("forecast from %v age %d over %d min: %v, reference %v", cur, age, h, got.avgOcc, want.avgOcc)
			}
		}
	}
}

// TestMergedBucketsMatchReference: a state with more than 96 distinct
// sojourns — 200 here, leaving for one of two states — is frozen into
// merged buckets whose durations, probabilities, destinations and
// survival are the reference's bit for bit, and so are the forecasts
// and fresh profiles that read them.
func TestMergedBucketsMatchReference(t *testing.T) {
	const a, b, c = market.Money(1000), market.Money(2000), market.Money(3000)
	tr := &trace.Trace{Zone: "test-1a", Type: market.M1Small}
	for k := int64(1); k <= 200; k++ {
		to := b
		if k%3 == 0 {
			to = c
		}
		tr.Points = append(tr.Points, trace.PricePoint{Minute: tr.End, Price: a}, trace.PricePoint{Minute: tr.End + k, Price: to})
		tr.End += k + 1 + k%2
	}
	m, rm := trainBoth(t, tr)
	sd := &m.soj[0]
	if len(rm.kernel[0]) != 200 || len(sd.durations) > 96 {
		t.Fatalf("%d sojourns left %d durations, want 200 merged into at most 96", len(rm.kernel[0]), len(sd.durations))
	}
	if len(sd.next) <= len(sd.durations) {
		t.Fatalf("%d destinations over %d buckets: no bucket merged rows leaving for both states", len(sd.next), len(sd.durations))
	}
	for i := range m.prices {
		requireSojournEqual(t, fmt.Sprintf("state %d", i), &m.soj[i], refSojourn(rm, i))
	}
	for _, h := range []int64{1, 90, 400} {
		requireFreshEqual(t, fmt.Sprintf("h=%d", h), m.fresh(h), refFresh(rm, h))
	}
	requireForecastsMatchReference(t, m, rm, a, []int64{1, 2, 50, 150, 199, 200, 201, 300}, []int64{1, 60, 360})
}

// TestSurvivalResidualMatchesReference: a state left after 1, 2 and 3
// minutes, once each, subtracts 1/3 three times from 1 and keeps the
// rounding residual 2^-53 as its survival at maxDur+1 = 4, then 0. The
// cursor reads it there, and the fresh profiles and the forecasts whose
// stay loop crosses it are the reference's bit for bit.
func TestSurvivalResidualMatchesReference(t *testing.T) {
	const a, b = market.Money(1000), market.Money(2000)
	tr := &trace.Trace{Zone: "test-1a", Type: market.M1Small, End: 10, Points: []trace.PricePoint{
		{Minute: 0, Price: a}, {Minute: 1, Price: b}, {Minute: 2, Price: a}, {Minute: 4, Price: b},
		{Minute: 5, Price: a}, {Minute: 8, Price: b}, {Minute: 9, Price: a},
	}}
	m, rm := trainBoth(t, tr)
	sd := &m.soj[0]
	c := survivalCursor{sd: sd}
	if r := c.at(sd.maxDur + 1); sd.maxDur != 3 || r == 0 || r != sd.survival[2] || c.at(sd.maxDur+2) != 0 {
		t.Fatalf("survival %v over durations %v: want a residual at minute 4 and 0 after it", sd.survival, sd.durations)
	}
	for i := range m.prices {
		requireSojournEqual(t, fmt.Sprintf("state %d", i), &m.soj[i], refSojourn(rm, i))
	}
	for _, h := range []int64{1, 4, 5, 12} {
		requireFreshEqual(t, fmt.Sprintf("h=%d", h), m.fresh(h), refFresh(rm, h))
	}
	requireForecastsMatchReference(t, m, rm, a, []int64{1, 2, 3, 4, 5}, []int64{1, 2, 3, 4, 8})
}

// requireFreshEqual compares a built cumulative table with the
// reference DP's, cell for cell by bit pattern.
func requireFreshEqual(t *testing.T, where string, got *freshProfiles, want []float64) {
	t.Helper()
	if len(got.cum) != len(want) {
		t.Fatalf("%s: %d cum cells, want %d", where, len(got.cum), len(want))
	}
	for c := range want {
		if math.Float64bits(got.cum[c]) != math.Float64bits(want[c]) {
			t.Fatalf("%s: cum[%d] = %v, want %v", where, c, got.cum[c], want[c])
		}
	}
}

// TestFreshMatchesReference pins the hop-compiled fresh-entry DP to the
// dense-scan one, cell for cell of the cumulative table, on seeded
// random models of one to thirteen states — with the AVX kernel and the
// Go loop, the loop alone below four cells and chunked rows above
// eight — at a first horizon and then at a longer one on the same
// model, which rebuilds the profiles with the pooled scratch already
// dirty.
func TestFreshMatchesReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2014))
		horizons := []int64{1, 60, 360, 720, 1000}
		merged, absorbing := 0, 0
		const models, widths = 260, 13
		var perWidth [widths + 1]int
		for trial := 0; trial < models; trial++ {
			n := 1 + trial%widths
			perWidth[n]++
			m, rm := randomModel(rng, n)
			for i := range m.prices {
				if len(rm.kernel[i]) > 96 {
					merged++
				}
				if m.out[i] == 0 {
					absorbing++
				}
			}
			first := (trial / widths) % 4
			for _, h := range []int64{horizons[first], horizons[first+1]} {
				got := m.fresh(h)
				if got.horizon != h || got.n != n {
					t.Fatalf("trial %d: profiles for horizon %d over %d states, want %d over %d", trial, got.horizon, got.n, h, n)
				}
				requireFreshEqual(t, fmt.Sprintf("trial %d (n=%d) h=%d", trial, n, h), got, refFresh(rm, h))
			}
		}
		for n, models := range perWidth[1:] {
			if models < 20 {
				t.Fatalf("%d models of %d states, want at least 20 at every width", models, n+1)
			}
		}
		if merged < 50 || absorbing < 50 {
			t.Fatalf("%d merged and %d absorbing states over %d models: the generator no longer covers them", merged, absorbing, models)
		}
	})
}

// TestFreshIgnoresScratchContents: a build reads no cell of its scratch
// that it has not written, so what the pool hands it — here NaN in
// every cell and hop and nonsense in every row job, then whatever
// a wider and longer build left behind — changes no bit of the
// profiles.
func TestFreshIgnoresScratchContents(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		build := func(m *Model, h int64, sc *freshScratch) *freshProfiles {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.buildFresh(h, sc)
		}
		for _, n := range []int{1, 3, 4, 5, 6, 7, 8, 9, 10, 13} {
			m, rm := randomModel(rng, n)
			const h = 150
			want := refFresh(rm, h)

			sc := &freshScratch{occ: make([]float64, 2*n*h*n), hops: make([]hop, 4096), jobs: make([]rowJob, 4*n)}
			for c := range sc.occ {
				sc.occ[c] = math.NaN()
			}
			for x := range sc.hops {
				sc.hops[x] = hop{d: 1, src: -1 << 40, wg: math.NaN()}
			}
			for x := range sc.jobs {
				sc.jobs[x] = rowJob{first: -7, n: 4096, row: -1 << 40, cum: 1 << 40, lane: 99, surv: math.NaN()}
			}
			requireFreshEqual(t, fmt.Sprintf("n=%d over NaN", n), build(m, h, sc), want)

			sc = new(freshScratch)
			wide, _ := randomModel(rng, 13)
			build(wide, 2*h, sc)
			requireFreshEqual(t, fmt.Sprintf("n=%d over a larger build", n), build(m, h, sc), want)
		}
	})
}

// TestFreshServesShorterHorizons pins the reuse a sweep dispatched
// longest interval first relies on: once a model holds profiles of
// horizon H, fresh(h) for any h <= H returns that same published table
// and builds nothing, and its first h minutes are bit for bit the
// table a build at h alone would give — minute t's row reads only
// hops with d <= t, so a longer build's prefix is the shorter build.
func TestFreshServesShorterHorizons(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{1, 4, 9, 13} {
		m, _ := randomModel(rng, n)
		const H = 720
		long := m.fresh(H)
		for _, h := range []int64{1, 60, 180, 360, H} {
			if got := m.fresh(h); got != long {
				t.Fatalf("n=%d: fresh(%d) after fresh(%d) returned a new table of horizon %d", n, h, H, got.horizon)
			}
			if m.profiles.Load() != long {
				t.Fatalf("n=%d: fresh(%d) published a new table", n, h)
			}
			m.mu.Lock()
			short := m.buildFresh(h, new(freshScratch))
			m.mu.Unlock()
			for i := 0; i < n; i++ {
				for u := int64(0); u <= h; u++ {
					a, b := long.at(i, u), short.at(i, u)
					for s := range a {
						if math.Float64bits(a[s]) != math.Float64bits(b[s]) {
							t.Fatalf("n=%d h=%d: state %d minute %d cell %d = %v from the %d-minute table, %v built alone", n, h, i, u, s, a[s], H, b[s])
						}
					}
				}
			}
		}
	}
}

// comebacks follows a set from one look at it to the next and counts
// the members that, having been in it and then out of it, are in it
// again.
type comebacks[K comparable] struct {
	seen, gone map[K]bool
}

func (c *comebacks[K]) observe(now []K) (back int) {
	if c.seen == nil {
		c.seen, c.gone = map[K]bool{}, map[K]bool{}
	}
	for k := range c.seen {
		if !slices.Contains(now, k) {
			c.gone[k] = true
		}
	}
	for _, k := range now {
		if c.seen[k] = true; c.gone[k] {
			delete(c.gone, k)
			back++
		}
	}
	return back
}

// TestWindowedEstimatorRandomSlides slides windows over random traces by
// random steps — zero-length slides, single minutes, jumps past the
// whole window — handing Advance now a view of the window, now the full
// trace and, when the window continues the last one, now only the suffix
// past the previous until, and after every slide requires the model to equal a
// from-scratch one over the same window: the same bytes, the same
// forecast bits. The traces repeat prices across any boundary, leave
// runs straddling the window start, and hold sojourns beyond the cap;
// and while one estimator lives (no jump re-seats it) counters empty
// and later come back, and price levels leave the state space and
// return — the counter chains have to follow both. The counter store
// takes from its free chain before it grows, so after every slide
// (which evicts before it adds) it holds exactly the most counters ever
// live at once.
func TestWindowedEstimatorRandomSlides(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	keysBack, pricesBack, suffixes := 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		tr := randomTrace(rng, 2+rng.Intn(5), 200+rng.Intn(1500))
		maxSojourn := []int64{0, 30, 600}[rng.Intn(3)]
		width := 1 + rng.Int63n((tr.End-tr.Start)/2)
		w := NewWindowedEstimator(maxSojourn)
		from, until := tr.Start, tr.Start
		type cellKey struct {
			from, to market.Money
			k        int64
		}
		var est *Estimator
		var peak int
		var keys comebacks[cellKey]
		var prices comebacks[market.Money]
		for step := 0; until < tr.End; step++ {
			prevUntil := until
			switch rng.Intn(8) {
			case 0: // zero-length slide
			case 1:
				until++
			case 2: // past the whole window
				until += width + rng.Int63n(width)
			default:
				until += rng.Int63n(width/4 + 2)
			}
			until = min(until, tr.End)
			from = max(from, until-width)
			if rng.Intn(6) == 0 {
				from = min(until, from+rng.Int63n(width)) // shrink the window too
			}
			hist := tr
			if rng.Intn(2) == 0 {
				hist = tr.Window(from, until)
			} else if step%2 == 1 && from < prevUntil {
				hist = tr.Window(prevUntil, until)
				suffixes++
			}
			if err := w.Advance(hist, from, until); err != nil {
				t.Fatalf("trial %d step %d: Advance [%d, %d): %v", trial, step, from, until, err)
			}
			if w.est != est {
				est, peak, keys, prices = w.est, 0, comebacks[cellKey]{}, comebacks[market.Money]{}
			}
			if peak = max(peak, est.live); len(est.counters) != peak {
				t.Fatalf("trial %d step %d: %d counters stored, at most %d were ever live", trial, step, len(est.counters), peak)
			}
			scratch := NewEstimator(maxSojourn)
			scratch.Observe(tr.Window(from, until))
			if got, want := w.est.observations, scratch.observations; got != want {
				t.Fatalf("trial %d step %d [%d, %d): %d observations, from scratch %d", trial, step, from, until, got, want)
			}
			if scratch.observations == 0 {
				continue
			}
			kc := countsOf(w.est)
			live := make([]cellKey, len(kc.cells))
			for x, c := range kc.cells {
				live[x] = cellKey{kc.prices[c.from], kc.prices[c.to], c.k}
			}
			keysBack += keys.observe(live)
			pricesBack += prices.observe(kc.prices)
			wm, sm := requireMatchesScratch(t, fmt.Sprintf("trial %d step %d [%d, %d)", trial, step, from, until), w, scratch)
			if step%7 != 0 {
				continue
			}
			cur, age := tr.PriceAt(until-1), tr.AgeAt(until-1)
			got, err := wm.Forecast(cur, age, 90)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sm.Forecast(cur, age, 90)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got.avgOcc, want.avgOcc) {
				t.Fatalf("trial %d step %d: forecast %v, from scratch %v", trial, step, got.avgOcc, want.avgOcc)
			}
		}
	}
	if keysBack < 100 || pricesBack < 10 || suffixes < 100 {
		t.Fatalf("%d counters and %d price levels came back to a live estimator, %d slides read a suffix: the slides no longer cover it", keysBack, pricesBack, suffixes)
	}
}

// TestForecastColdConcurrentModels builds the fresh profiles of many
// cold models at once, at mixed horizons, so the builds draw from and
// return to the shared scratch pool concurrently; every forecast must
// equal the one a model alone produces. Under -race this pins that a
// pooled scratch is never shared between two builds.
func TestForecastColdConcurrentModels(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(3)), 6, 4000)
	cur, age := tr.PriceAt(tr.End-1), tr.AgeAt(tr.End-1)
	train := func() *Model {
		e := NewEstimator(0)
		e.Observe(tr)
		m, err := e.Model()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	horizons := []int64{45, 360, 90, 720, 180}
	want := make([]stateDist, len(horizons))
	for x, h := range horizons {
		f, err := train().Forecast(cur, age, h)
		if err != nil {
			t.Fatal(err)
		}
		want[x] = f.avgOcc
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		m := train()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				x := (g + round) % len(horizons)
				f, err := m.Forecast(cur, age, horizons[x])
				if err != nil {
					t.Error(err)
					return
				}
				// A shorter horizon after a longer one reads the longer
				// profiles, which sum in the same order.
				if !bitsEqual(f.avgOcc, want[x]) {
					t.Errorf("goroutine %d horizon %d: forecast %v, want %v", g, horizons[x], f.avgOcc, want[x])
				}
			}
		}(g)
	}
	wg.Wait()
}
