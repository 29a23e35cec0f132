// Package experiments reproduces every table and figure of the paper's
// evaluation (§5) on the synthetic market (see DESIGN.md §3 for the
// experiment index and §4 for the data substitution):
//
//	Table 1   — region/availability-zone catalog
//	Figure 1  — spot price history sample
//	Figure 4  — micro-benchmark: measured out-of-bid failure probability
//	Figure 5  — one-week cost, lock + storage service
//	Figures 6/7 — 11-week lock-service cost and availability vs interval
//	Figures 8/9 — 11-week storage-service cost and availability
//	Headline  — cost reduction percentages (81.23% / 85.32% in-paper)
//	Example §3 — availability arithmetic and naive-bidding downtime
package experiments

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Week is one week of minutes.
const Week = int64(7 * 24 * 60)

// Env fixes the data and scale of an experiment run.
type Env struct {
	// Seed drives trace generation and replay jitter.
	Seed uint64
	// TrainWeeks is the model-training prefix (the paper used ~3
	// months of price history).
	TrainWeeks int64
	// ReplayWeeks is the accounted span (11 in the paper's §5.5).
	ReplayWeeks int64
	// Jobs is the worker-pool width for sweeps: independent
	// (strategy, interval) cells replay concurrently. Zero or one means
	// sequential. Every cell seeds its own provider RNG, so results are
	// identical at any parallelism.
	Jobs int
	// Models is the shared price-model provider. Every replay this Env
	// drives routes model training through it, so cells that request
	// the same (zone, training window) — Jupiter variants at intervals
	// whose retrain boundaries coincide — estimate it once. Nil makes
	// each sweep create its own cache; set it to share across sweeps
	// (the trace fingerprint in the cache key keys different services'
	// histories apart) or to read hit/train counters afterwards.
	Models *modelcache.Cache
	// Chaos, when set, arms every replay cell with this fault-injection
	// scenario (see internal/chaos). All cells share the one scenario
	// and chaos seed, so every strategy faces the identical fault
	// schedule — the comparison the chaos suite is after.
	Chaos *chaos.Scenario
	// ChaosSeed overrides the scenario's seed when non-zero.
	ChaosSeed uint64
	// Types lists additional instance types to bid across, beyond each
	// spec's base type: the market grows one correlated pool per (zone,
	// extra type), and pool-aware strategies bid over the whole
	// portfolio. Empty reproduces the paper's single-type market
	// byte-identically.
	Types []market.InstanceType
	// MinVCPU and MinMemGiB, when non-zero, constrain every replayed
	// spec's feasible instance shapes (strategy.ServiceSpec.MinVCPU /
	// MinMemGiB).
	MinVCPU   int
	MinMemGiB float64
	// TraceSet, when set, replaces the synthetic market: every spec
	// replays over this set — e.g. one loaded from a file — instead of
	// generating one from Seed. Traces validates that the set carries
	// the spec's base type and covers the train+replay span.
	TraceSet *trace.Set
	// Workload, when set, arms every replay cell with this request-rate
	// trace (replay.Config.Workload): the cell autoscales the group
	// between interval boundaries instead of holding the spec's fixed
	// size. A flat trace (or nil) reproduces the fixed-size runs
	// byte-identically.
	Workload *workload.Trace
	// Observe, when set, builds the observers of each replay cell: it
	// is called once per cell, before the replay starts, with the
	// cell's coordinates, and its return value receives that cell's
	// event stream. Cells of a parallel sweep run concurrently, so the
	// factory must be safe for concurrent calls and per-run observer
	// state (e.g. telemetry.Collector) must be built fresh per call;
	// shared sinks (a telemetry.Registry, a mutex-guarded
	// telemetry.TraceWriter) may be captured by the closure. Nil means
	// unobserved — the replay hot path skips event construction
	// entirely.
	Observe func(spec strategy.ServiceSpec, strategyName string, intervalHours int64) []engine.Observer
	// sink, set by Flags.Open, is where every replay cell of this Env
	// reports: the cell's event trace, ledger and span recorder come
	// from it, after Observe's, and its result goes back to it. Nil
	// records nothing.
	sink *Sink
}

// DefaultEnv matches the paper's scale.
func DefaultEnv() Env {
	return Env{Seed: 2014, TrainWeeks: 13, ReplayWeeks: 11}
}

// QuickEnv is a scaled-down environment for benchmarks and smoke runs.
func QuickEnv() Env {
	return Env{Seed: 2014, TrainWeeks: 6, ReplayWeeks: 1}
}

// LockSpec is the distributed lock service deployment (§5.1.1/§5.2):
// five m1.small replicas, majority quorum.
func LockSpec() strategy.ServiceSpec {
	return strategy.ServiceSpec{Type: market.M1Small, BaseNodes: 5, DataShards: 1}
}

// StorageSpec is the erasure-coded storage deployment (§5.1.2/§5.2):
// five m3.large nodes, θ(3,5) RS-Paxos quorum.
func StorageSpec() strategy.ServiceSpec {
	return strategy.ServiceSpec{Type: market.M3Large, BaseNodes: 5, DataShards: 3}
}

// Traces generates (deterministically) the market history for a spec:
// a training prefix of TrainWeeks followed by ReplayWeeks of replayable
// market, across the paper's 17 experiment zones — plus one correlated
// sibling pool per (zone, Env.Types entry) when types are configured.
func (e Env) Traces(it market.InstanceType) (*trace.Set, error) {
	if e.TraceSet != nil {
		if e.TraceSet.Type != it {
			return nil, fmt.Errorf("experiments: trace set holds %s pools, spec needs %s", e.TraceSet.Type, it)
		}
		if need := (e.TrainWeeks + e.ReplayWeeks) * Week; e.TraceSet.Start > 0 || e.TraceSet.End < need {
			return nil, fmt.Errorf("experiments: trace set spans [%d, %d), need [0, %d)",
				e.TraceSet.Start, e.TraceSet.End, need)
		}
		return e.TraceSet, nil
	}
	return trace.Generate(trace.GenConfig{
		Seed:  e.Seed,
		Type:  it,
		Types: e.Types,
		Zones: market.ExperimentZones(),
		Start: 0,
		End:   (e.TrainWeeks + e.ReplayWeeks) * Week,
	})
}

// applyConstraints stamps the Env's fleet-wide shape constraints onto a
// spec.
func (e Env) applyConstraints(spec strategy.ServiceSpec) strategy.ServiceSpec {
	if e.MinVCPU > 0 {
		spec.MinVCPU = e.MinVCPU
	}
	if e.MinMemGiB > 0 {
		spec.MinMemGiB = e.MinMemGiB
	}
	return spec
}

// serviceName maps a spec back to the experiment's service label.
func serviceName(spec strategy.ServiceSpec) string {
	if spec.DataShards > 1 {
		return "storage"
	}
	return "lock"
}

// cellSeed derives a sweep cell's replay seed from the master seed and
// the cell's coordinates, so no two cells of a figure share jitter.
func (e Env) cellSeed(strat strategy.Strategy, intervalHours int64) uint64 {
	return e.Seed ^ uint64(intervalHours)<<32 ^ uint64(len(strat.Name()))
}

// replayOne runs a single strategy/interval combination on its derived
// cell seed, in the sink's next free slot — for callers that replay
// their cells one after another.
func (e Env) replayOne(set *trace.Set, spec strategy.ServiceSpec, strat strategy.Strategy, intervalHours int64) (*replay.Result, error) {
	return e.replayCell(set, spec, strat, intervalHours, e.cellSeed(strat, intervalHours), e.sink.reserve(1), "")
}

// replayCell is the one cell runner: every replay any command drives
// goes through it. The replay seed is the caller's — sweeps derive one
// per cell, cmd/replay passes -seed as typed. slot is the cell's
// reserved place in the sink (its grid index, so output order never
// depends on the worker count) and scenario the chaos label a
// tournament grid stamps on the cell's records.
func (e Env) replayCell(set *trace.Set, spec strategy.ServiceSpec, strat strategy.Strategy, intervalHours int64, seed uint64, slot int, scenario string) (*replay.Result, error) {
	var observers []engine.Observer
	if e.Observe != nil {
		observers = e.Observe(spec, strat.Name(), intervalHours)
	}
	obs, spans := e.sink.cell(slot, provenance.Stamp{
		Strategy: strat.Name(), Scenario: scenario, Service: serviceName(spec),
		Interval: fmt.Sprintf("%dh", intervalHours), Seed: e.Seed,
	})
	observers = append(observers, obs...)
	res, err := replay.Run(replay.Config{
		Traces:                 set,
		Start:                  e.TrainWeeks * Week,
		Spec:                   spec,
		Strategy:               strat,
		IntervalMinutes:        intervalHours * 60,
		Seed:                   seed,
		InjectHardwareFailures: true,
		Models:                 e.Models,
		Observers:              observers,
		Chaos:                  e.Chaos,
		ChaosSeed:              e.ChaosSeed,
		Spans:                  spans,
		Workload:               e.Workload,
	})
	if err == nil {
		// Per-run observers (e.g. provenance.Ledger)
		// finalize open state — e.g. a quorum-down span still open at the
		// end of accounting.
		for _, o := range observers {
			if c, ok := o.(interface{ CloseRun(endMinute int64) }); ok {
				c.CloseRun(e.TrainWeeks*Week + res.TotalMinutes)
			}
		}
		e.sink.done(slot, res)
	}
	return res, err
}

// ReplayIntervals replays one strategy at each of the given bidding
// intervals — a one-strategy sweep: cells on the Env's worker pool over
// one shared model cache, dispatched longest interval first
// (longestFirst), results in input order, every cell on Env.Seed itself
// (cmd/replay's -seed, not a derived cell seed).
func (e Env) ReplayIntervals(spec strategy.ServiceSpec, build strategy.Builder, intervals []int64) ([]*replay.Result, error) {
	spec = e.applyConstraints(spec)
	set, err := e.Traces(spec.Type)
	if err != nil {
		return nil, err
	}
	if e.Models == nil {
		e.Models = modelcache.New()
	}
	results := make([]*replay.Result, len(intervals))
	base := e.sink.reserve(len(intervals))
	err = forEachCell(len(intervals), e.Jobs, longestFirst(intervals, func(i int) error {
		res, err := e.replayCell(set, spec, build(), intervals[i], e.Seed, base+i, "")
		results[i] = res
		return err
	}))
	if err != nil {
		return nil, err
	}
	return results, nil
}

// SweepRow is one cell of the Figures 6–9 matrices.
type SweepRow struct {
	Service       string
	Strategy      string
	IntervalHours int64
	Cost          market.Money
	Availability  float64
	OutOfBid      int
	MeanGroupSize float64
}

// SweepIntervals are the bidding intervals of §5.5.
var SweepIntervals = []int64{1, 3, 6, 9, 12}

// sweepSpecs is the §5.5 roster as registry specs, in the paper's
// figure order. The specs resolve against strategy.Default — core's
// Jupiter registration rides in on this package's core import — so the
// sweep roster is the same construction path as any user-supplied
// strategy list.
var sweepSpecs = []string{"jupiter", "extra(0, 0.2)", "extra(2, 0.2)", "baseline"}

// sweepStrategies builds the §5.5 strategy roster from the registry.
// Each builder constructs a fresh instance per run so model caches and
// controller state never leak across runs.
func sweepStrategies() []func() strategy.Strategy {
	builders, err := strategy.Default.BuildSpecs(sweepSpecs)
	if err != nil {
		// The roster is fixed at compile time; a resolution failure is a
		// programming error (e.g. core's registration import dropped).
		panic(err)
	}
	out := make([]func() strategy.Strategy, len(builders))
	for i, b := range builders {
		out[i] = b
	}
	return out
}

// runCell invokes one cell, converting a panic into an error carrying
// the cell index and stack. Isolation matters most for the worker pool:
// an unrecovered panic in one cell would tear down the whole process
// mid-sweep; recovered, the bad cell reports like any failed one and
// every other cell still finishes.
func runCell(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: cell %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}

// longestFirst maps forEachCell's dispatch index onto an interval grid,
// where hours[i] is grid cell i's bidding interval: dispatch runs the
// cells longest interval first, grid order kept among equal intervals.
// A price model the cells share is then first asked for its forecast
// profile at the longest horizon any cell will ask, and every shorter
// cell reads a prefix of that table instead of rebuilding it — bit for
// bit the table its own build would give (smc.Model.fresh). fn still
// receives grid indices, so output slots keep the grid order.
func longestFirst(hours []int64, fn func(i int) error) func(k int) error {
	order := make([]int, len(hours))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(hours[b], hours[a]) })
	return func(k int) error { return fn(order[k]) }
}

// forEachCell runs fn for every index in [0, n) on a pool of jobs
// workers. Output slots are indexed, and the first error by index wins
// regardless of completion order, so a parallel run returns exactly
// what the sequential one would.
func forEachCell(n, jobs int, fn func(i int) error) error {
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if err := runCell(i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = runCell(i, fn)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sweep reproduces one service's cost/availability matrices (Figures
// 6/7 for the lock service, 8/9 for storage). Cells — one replay per
// (interval, strategy) pair — are independent: each builds its own
// strategy and provider over the shared read-only trace set, so with
// Env.Jobs > 1 they run concurrently. They are dispatched longest
// interval first (longestFirst), and the rows come back in the grid's
// interval-major order at any Jobs.
func (e Env) Sweep(spec strategy.ServiceSpec, serviceName string) ([]SweepRow, error) {
	spec = e.applyConstraints(spec)
	set, err := e.Traces(spec.Type)
	if err != nil {
		return nil, err
	}
	if e.Models == nil {
		// One provider across every cell of this sweep: all Env.Jobs
		// workers share it, so coinciding retrains train once.
		e.Models = modelcache.New()
	}
	var hours []int64
	var mks []func() strategy.Strategy
	for _, h := range SweepIntervals {
		for _, mk := range sweepStrategies() {
			hours, mks = append(hours, h), append(mks, mk)
		}
	}
	rows := make([]SweepRow, len(hours))
	base := e.sink.reserve(len(hours))
	err = forEachCell(len(hours), e.Jobs, longestFirst(hours, func(i int) error {
		strat := mks[i]()
		res, err := e.replayCell(set, spec, strat, hours[i], e.cellSeed(strat, hours[i]), base+i, "")
		if err != nil {
			return fmt.Errorf("experiments: %s/%s/%dh: %w", serviceName, strat.Name(), hours[i], err)
		}
		rows[i] = SweepRow{
			Service:       serviceName,
			Strategy:      strat.Name(),
			IntervalHours: hours[i],
			Cost:          res.Cost,
			Availability:  res.Availability,
			OutOfBid:      res.OutOfBid,
			MeanGroupSize: res.MeanGroupSize,
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig6and7 reproduces the lock-service sweep.
func (e Env) Fig6and7() ([]SweepRow, error) {
	return e.Sweep(LockSpec(), "lock")
}

// Headline summarizes the paper's headline claim from sweep rows: the
// best-interval Jupiter cost versus the baseline.
type Headline struct {
	Service          string
	BaselineCost     market.Money
	JupiterBestCost  market.Money
	JupiterBestHours int64
	ReductionPercent float64
	// AvailabilityKept is true when Jupiter's availability at the best
	// interval is within epsilon of the baseline's.
	JupiterAvailability  float64
	BaselineAvailability float64
}

// HeadlineFrom extracts the headline for one service from sweep rows:
// the cheapest Jupiter interval whose measured availability still meets
// the service's target (the paper's Equation 10 constraint), against
// the baseline cost. If no interval meets the target exactly, the
// highest-availability interval is reported instead.
func HeadlineFrom(rows []SweepRow, service string, targetAvailability float64) (Headline, error) {
	h := Headline{Service: service}
	var haveBase, haveJup bool
	bestAvail := -1.0
	for _, r := range rows {
		if r.Service != service {
			continue
		}
		switch r.Strategy {
		case "Baseline":
			if !haveBase || r.Cost > h.BaselineCost {
				h.BaselineCost = r.Cost
				h.BaselineAvailability = r.Availability
				haveBase = true
			}
		case "Jupiter":
			meets := r.Availability >= targetAvailability
			curMeets := haveJup && h.JupiterAvailability >= targetAvailability
			better := false
			switch {
			case !haveJup:
				better = true
			case meets && !curMeets:
				better = true
			case meets == curMeets && meets && r.Cost < h.JupiterBestCost:
				better = true
			case !meets && !curMeets && r.Availability > bestAvail:
				better = true
			}
			if better {
				h.JupiterBestCost = r.Cost
				h.JupiterBestHours = r.IntervalHours
				h.JupiterAvailability = r.Availability
				bestAvail = r.Availability
				haveJup = true
			}
		}
	}
	if !haveBase || !haveJup {
		return h, fmt.Errorf("experiments: sweep rows missing baseline or Jupiter for %s", service)
	}
	h.ReductionPercent = 100 * (1 - h.JupiterBestCost.Dollars()/h.BaselineCost.Dollars())
	return h, nil
}

// ReservedDiscount is the paper's §5.2 note: "using reserved instances
// can reduce 30%–40% cost at most, but it is inflexible". The midpoint
// models a reserved-instance baseline for comparison.
const ReservedDiscount = 0.35

// ReservedCost estimates what the baseline deployment would cost on
// reserved instances.
func (h Headline) ReservedCost() market.Money {
	return h.BaselineCost.Scale(1 - ReservedDiscount)
}

// JupiterVsReservedPercent is Jupiter's cost reduction measured against
// the reserved-instance baseline instead of on-demand — Jupiter must
// still win for the paper's argument to carry.
func (h Headline) JupiterVsReservedPercent() float64 {
	return 100 * (1 - h.JupiterBestCost.Dollars()/h.ReservedCost().Dollars())
}
