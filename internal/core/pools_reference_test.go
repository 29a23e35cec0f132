package core

// Reference (exhaustive) implementation of the rebid's bisection:
// fitUniformFP exactly as it was when it ran all 100 iterations on a
// freshly allocated DP row, remembered nothing and answered with one
// number. The tests below pin the planner's lazy, resumable bisection
// to it: every prefix of a path brackets the reference's answer and the
// end of the path is that answer to the bit, and the decisions built on
// reading a prefix are the decisions built on the answer.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/quorum"
	"repro/internal/trace"
)

func refFitUniformFP(t int, units []int, target float64) (float64, bool) {
	fps := make([]float64, len(units))
	availAt := func(p float64) float64 {
		for i := range fps {
			fps[i] = p
		}
		return quorum.WeightedThresholdAvailability(t, units, fps)
	}
	if availAt(0) < target {
		return 0, false
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if availAt(mid) >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

func sameFit(fp float64, ok bool, wantFP float64, wantOK bool) bool {
	return ok == wantOK && math.Float64bits(fp) == math.Float64bits(wantFP)
}

// converge runs a key's bisection to its end, from wherever the memo
// holds it, and returns the answer.
func converge(j *Jupiter, t int, units []int, target float64) (float64, bool) {
	s := j.fitUniformFP(t, units, target)
	for !s.done {
		j.fitStep(s, t, units, target)
	}
	return s.lo, s.ok
}

// fillMemo stuffs the fit memo to its cap, so the next new key resets it.
func fillMemo(j *Jupiter) {
	for i := 0; len(j.fitCache) < memoCap; i++ {
		j.fitCache[strconv.Itoa(i)] = &fitState{}
	}
}

// TestFitUniformFPMatchesReference is the prefix property: 1500 seeded
// (t, units, target) instances on one Jupiter, each stepped one probe at
// a time. At every step the reference's answer lies in the state's
// [lo, up], the upper bound excludes a probed-infeasible hi, and at the
// end lo is the answer to the bit. The state is looked up afresh before
// every step, so each step after the first resumes a memo hit; every
// 25th instance loses its state to a memoCap reset part-way and starts
// over. Thresholds fall on both sides of [1, total]; targets include the
// everywhere-feasible (<= 0, where the bisection climbs to exactly 1),
// the nowhere-feasible (> 1), NaN — the one boundary so near 0 that the
// iteration cap ends the search with lo still 0 — and exactly 1, whose
// boundary near 2^-54 the cap leaves short of full precision.
func TestFitUniformFPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	j := New()
	capped, resets := 0, 0
	for trial := 0; trial < 1500; trial++ {
		n := rng.Intn(16)
		maxUnit := []int{1, 4, 70}[rng.Intn(3)]
		units := make([]int, n)
		total := 0
		for i := range units {
			units[i] = 1 + rng.Intn(maxUnit)
			total += units[i]
		}
		thr := rng.Intn(total+6) - 2 // -2 .. total+3
		var target float64
		switch rng.Intn(8) {
		case 0:
			target = []float64{-1, 0, 1, 1.5, math.NaN()}[rng.Intn(5)]
		case 1:
			target = rng.Float64()
		default:
			target = 1 - math.Pow(10, -1-6*rng.Float64())
		}
		wantFP, wantOK := refFitUniformFP(thr, units, target)
		fail := func(s *fitState, what string) {
			t.Helper()
			t.Fatalf("trial %d: %s: state %+v, reference (%x, %v) (t=%d units=%v target=%v)",
				trial, what, *s, math.Float64bits(wantFP), wantOK, thr, units, target)
		}
		for step, iters := 0, 0; ; step++ {
			s := j.fitUniformFP(thr, units, target)
			if step == 0 {
				iters = s.iters // non-zero when an earlier instance drew the same key
			}
			if s.iters != iters {
				fail(s, fmt.Sprintf("the memo did not resume the path at probe %d", iters))
			}
			if s.ok != wantOK {
				fail(s, "feasibility at 0")
			}
			if !s.ok {
				if !s.done {
					fail(s, "an infeasible target left the path open")
				}
				break
			}
			lo, up := s.bounds()
			if !(lo <= wantFP && wantFP <= up) {
				fail(s, fmt.Sprintf("step %d: [%x, %x] misses the answer", step, math.Float64bits(lo), math.Float64bits(up)))
			}
			if up >= s.hi && s.hi < 1 {
				fail(s, "upper bound includes a probed-infeasible point")
			}
			if s.done {
				if math.Float64bits(s.lo) != math.Float64bits(wantFP) {
					fail(s, "end of path")
				}
				if s.iters == fitMaxIters {
					capped++
				}
				break
			}
			if iters > fitMaxIters {
				fail(s, "path does not end")
			}
			if trial%25 == 0 && step == 7 {
				fillMemo(j)
				j.fitUniformFP(thr+1000, units, target) // a new key at the cap: everything goes
				if fresh := j.fitUniformFP(thr, units, target); fresh == s || fresh.iters != 0 || len(j.fitCache) != 2 {
					fail(fresh, fmt.Sprintf("memoCap reset kept the state (%d entries)", len(j.fitCache)))
				}
				resets++
				iters = 0
				continue
			}
			j.fitStep(s, thr, units, target)
			iters++
		}
	}
	if capped == 0 || resets == 0 {
		t.Fatalf("%d paths ended at the iteration cap, %d were reset part-way; the pin needs both", capped, resets)
	}
}

// TestMemosSurviveReset: both pure memos drop everything at memoCap
// entries and answer the same afterwards.
func TestMemosSurviveReset(t *testing.T) {
	j := New()
	units := []int{16, 24, 34, 68, 16}
	target := lockSpec().TargetAvailability()
	fitFP, fitOK := converge(j, 80, units, target)
	invFP, invOK := j.invertFP(7, 4, target)
	fillMemo(j)
	for i := 0; len(j.fpCache) < memoCap; i++ {
		j.fpCache[fpKey{n: -1 - i}] = fpVal{}
	}
	wantFP, wantOK := refFitUniformFP(81, units, target)
	if fp, ok := converge(j, 81, units, target); !sameFit(fp, ok, wantFP, wantOK) || len(j.fitCache) != 1 {
		t.Fatalf("fit at the cap: (%v, %v) with %d entries, reference (%v, %v) with 1", fp, ok, len(j.fitCache), wantFP, wantOK)
	}
	if j.invertFP(9, 5, target); len(j.fpCache) != 1 {
		t.Fatalf("fpCache holds %d entries after an insert at the cap, want 1", len(j.fpCache))
	}
	if fp, ok := converge(j, 80, units, target); !sameFit(fp, ok, fitFP, fitOK) {
		t.Fatalf("fit after reset (%v, %v), before (%v, %v)", fp, ok, fitFP, fitOK)
	}
	if fp, ok := j.invertFP(7, 4, target); !sameFit(fp, ok, invFP, invOK) {
		t.Fatalf("invertFP after reset (%v, %v), before (%v, %v)", fp, ok, invFP, invOK)
	}
}

// poolSet generates the benchmark's 68-pool market shape
// (bench/workloads.go, jupiter_pools68): m1.small and three sibling
// types in 17 zones, trainWeeks of history and decideMinutes to decide
// in.
func poolSet(tb testing.TB, seed uint64, trainWeeks, decideMinutes int64) *trace.Set {
	tb.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: seed, Type: market.M1Small,
		Types: []market.InstanceType{market.M1Medium, market.C3Large, market.R3Large},
		Zones: market.ExperimentZones(),
		Start: 0, End: trainWeeks*week + decideMinutes,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return set
}

// benchPoolSet is that market at the benchmark's size and seed 2014:
// 6 training weeks and 2 days to decide in.
func benchPoolSet(tb testing.TB) *trace.Set { return poolSet(tb, 2014, 6, 2*24*60) }

// TestDecidePoolsMatchesReferenceFit pins the decisions. Twelve seeded
// 68-pool markets, 24 consecutive 3 h Decides on each — the span over
// which the fit memo goes from empty to mostly resumed hits — under
// every estimator mode and at three fault loads: none; one faulted zone
// (degraded, then healthy again as the pressure decays); thirteen of the
// seventeen zones faulted (critical, quarantine leaving so few pools
// that groups are padded with on-demand members, which the rebid then
// sees). A Jupiter that reads
// bisection prefixes must return the Decision, candidate table, bid
// failure probabilities and provenance spans of one whose every rebid
// reads the exhaustive reference's converged answer.
func TestDecidePoolsMatchesReferenceFit(t *testing.T) {
	const (
		trainWeeks = 3
		interval   = 180
		decides    = 24
	)
	markets := 12
	if testing.Short() || raceDetector {
		markets = 2
	}
	spec := lockSpec()
	zones := market.ExperimentZones()
	faultLoads := []struct {
		name  string
		zones []string
		stage degradeStage
	}{
		{"healthy", nil, stageHealthy},
		{"degraded", zones[:1], stageDegraded},
		{"critical", zones[:13], stageCritical},
	}
	var rebids, padded atomic.Int64
	pinMarket := func(t *testing.T, seed uint64) {
		set := poolSet(t, seed, trainWeeks, decides*interval)
		models := modelcache.New() // training is not under test: once per market
		// The reference is pure, so one memo serves every configuration.
		type refVal struct {
			fp float64
			ok bool
		}
		refMemo := make(map[string]refVal)
		refFit := func(thr int, units []int, target float64) (float64, bool) {
			key := fmt.Sprint(thr, units, math.Float64bits(target))
			v, ok := refMemo[key]
			if !ok {
				v.fp, v.ok = refFitUniformFP(thr, units, target)
				refMemo[key] = v
			}
			return v.fp, v.ok
		}
		for _, mode := range []EstimatorMode{ModeInterval, ModeStationary, ModeOneStep} {
			for _, load := range faultLoads {
				name := fmt.Sprintf("mode %d %s", mode, load.name)
				fast, ref := New(), New()
				ref.fit = refFit
				for _, j := range []*Jupiter{fast, ref} {
					j.Mode = mode
					j.UseModelCache(models)
					j.UseRecorder(provenance.NewRecorder(1))
					for _, z := range load.zones {
						j.OnFault(fault(z, trainWeeks*week-1))
					}
				}
				for d := int64(0); d < decides; d++ {
					view := traceView{set: set, now: trainWeeks*week + d*interval}
					got, err := fast.Decide(view, spec, interval)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.Decide(view, spec, interval)
					if err != nil {
						t.Fatal(err)
					}
					if d == 0 && fast.lastStage != load.stage {
						t.Fatalf("%s: first Decide at stage %v", name, fast.lastStage)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s decision %d: %+v, reference %+v", name, d, got, want)
					}
					if !reflect.DeepEqual(lastCandidates(fast), lastCandidates(ref)) {
						t.Fatalf("%s decision %d: candidates %+v, reference %+v", name, d, lastCandidates(fast), lastCandidates(ref))
					}
					if !reflect.DeepEqual(fast.LastBidFailureProbabilities(), ref.LastBidFailureProbabilities()) {
						t.Fatalf("%s decision %d: bid failure probabilities %+v, reference %+v", name, d,
							fast.LastBidFailureProbabilities(), ref.LastBidFailureProbabilities())
					}
					if len(want.OnDemand) > 0 && len(want.Bids) > 0 {
						padded.Add(1)
					}
				}
				if got, want := fast.prov.Spans(), ref.prov.Spans(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %d spans, reference %d, or they differ", name, len(got), len(want))
				}
				rebids.Add(int64(len(fast.fitCache)))
			}
		}
	}
	t.Run("markets", func(t *testing.T) {
		for m := 0; m < markets; m++ {
			seed := 2014 + uint64(m)*0x9E3779B97F4A7C15
			t.Run(strconv.FormatUint(seed, 10), func(t *testing.T) {
				t.Parallel()
				pinMarket(t, seed)
			})
		}
	})
	if rebids.Load() == 0 || padded.Load() == 0 {
		t.Fatalf("%d rebid groups, %d mixed spot/on-demand decisions; the pin is vacuous", rebids.Load(), padded.Load())
	}
}
