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
	// ReplayWeeks is the accounted span (11 in the paper's §5.5): every
	// replay cell accounts weeks [TrainWeeks, TrainWeeks+ReplayWeeks),
	// however far its trace set runs. Zero accounts to the set's end
	// instead — a sub-week replay over a TraceSet.
	ReplayWeeks int64
	// Jobs is the worker-pool width for grids: independent cells
	// replay concurrently. Zero or one means sequential. Every cell
	// seeds its own provider RNG, so results are identical at any
	// parallelism.
	Jobs int
	// Models is the shared price-model provider. Every replay this Env
	// drives routes model training through it, so cells that request
	// the same (zone, training window) — Jupiter variants at intervals
	// whose retrain boundaries coincide — estimate it once. Nil makes
	// each grid create its own cache; set it to share across grids
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
	// MinVCPU and MinMemGiB, when non-zero, are the smallest instance
	// shape that may host the service: Traces drops every pool whose
	// type offers less, so no replay sees it.
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

// Traces returns the market history a spec replays over: a training
// prefix of TrainWeeks followed by ReplayWeeks of replayable market.
// That is TraceSet when set; otherwise it is generated
// (deterministically) across the paper's 17 experiment zones, plus one
// correlated sibling pool per (zone, Env.Types entry). MinVCPU and
// MinMemGiB then drop every pool whose instance type offers less
// (market.FilterPools), keeping each survivor's trace; a shape no pool
// offers is an error.
func (e Env) Traces(it market.InstanceType) (*trace.Set, error) {
	set := e.TraceSet
	if set != nil {
		if set.Type != it {
			return nil, fmt.Errorf("experiments: trace set holds %s pools, spec needs %s", set.Type, it)
		}
		if need := (e.TrainWeeks + e.ReplayWeeks) * Week; set.Start > 0 || set.End < need {
			return nil, fmt.Errorf("experiments: trace set spans [%d, %d), need [0, %d)", set.Start, set.End, need)
		}
	} else {
		var err error
		set, err = trace.Generate(trace.GenConfig{
			Seed:  e.Seed,
			Type:  it,
			Types: e.Types,
			Zones: market.ExperimentZones(),
			Start: 0,
			End:   (e.TrainWeeks + e.ReplayWeeks) * Week,
		})
		if err != nil {
			return nil, err
		}
	}
	if e.MinVCPU <= 0 && e.MinMemGiB <= 0 {
		return set, nil
	}
	keys, err := market.FilterPools(set.Zones(), it, e.MinVCPU, e.MinMemGiB)
	if err != nil {
		return nil, err
	}
	shaped := trace.NewSet(it, set.Start, set.End)
	for _, k := range keys {
		shaped.ByZone[k] = set.ByZone[k]
	}
	return shaped, nil
}

// serviceName maps a spec back to the experiment's service label.
func serviceName(spec strategy.ServiceSpec) string {
	if spec.DataShards > 1 {
		return "storage"
	}
	return "lock"
}

// cell is one replay of a grid: a strategy at one bidding interval on
// one market, with the labels its records carry.
type cell struct {
	set   *trace.Set
	spec  strategy.ServiceSpec
	build strategy.Builder
	hours int64
	// seed is the master seed the cell's market was drawn from, stamped
	// on its records. The cell replays on cellSeed of it — or, with
	// typed, on seed itself (cmd/replay's -seed as typed).
	seed  uint64
	typed bool
	// chaos and workload arm the cell, and scenario is the chaos label
	// its records carry (the tournament's grid coordinates).
	chaos    *chaos.Scenario
	workload *workload.Trace
	scenario string
}

// cell makes a grid cell armed as the Env is: its seed, chaos scenario
// and workload.
func (e Env) cell(set *trace.Set, spec strategy.ServiceSpec, build strategy.Builder, hours int64) cell {
	return cell{set: set, spec: spec, build: build, hours: hours, seed: e.Seed, chaos: e.Chaos, workload: e.Workload}
}

// cellSeed derives a cell's replay seed from its master seed, its
// interval and the length of its strategy's name. Two strategies whose
// names are equally long share jitter at every interval: Extra(0, 0.2)
// and Extra(2, 0.2) replay on one seed.
func cellSeed(seed uint64, strat strategy.Strategy, intervalHours int64) uint64 {
	return seed ^ uint64(intervalHours)<<32 ^ uint64(len(strat.Name()))
}

// runGrid is the one grid runner: every replay any command drives is a
// cell of a grid it runs. It reserves the cells' sink slots in grid
// order, shares one model cache across them (Env.Models, or a fresh one
// per grid, so coinciding retrains train once), dispatches them on
// Env.Jobs workers longest interval first (longestFirst), and returns
// their results in grid order — the same at any Jobs. A failed cell's
// error names the cell.
func (e Env) runGrid(cells []cell) ([]*replay.Result, error) {
	if e.Models == nil {
		e.Models = modelcache.New()
	}
	results := make([]*replay.Result, len(cells))
	base := e.sink.reserve(len(cells))
	err := forEachCell(len(cells), e.Jobs, longestFirst(cells, func(i int) error {
		res, err := e.replayCell(cells[i], base+i)
		results[i] = res
		return err
	}))
	if err != nil {
		return nil, err
	}
	return results, nil
}

// replayCell replays one cell in its reserved sink slot (its grid
// index, so output order never depends on the worker count), over the
// Env's accounting window (ReplayWeeks).
func (e Env) replayCell(c cell, slot int) (*replay.Result, error) {
	strat := c.build()
	seed := c.seed
	if !c.typed {
		seed = cellSeed(c.seed, strat, c.hours)
	}
	var end int64 // zero: replay.Run's default, the set's last simulable minute
	if e.ReplayWeeks > 0 {
		end = (e.TrainWeeks+e.ReplayWeeks)*Week - 1
	}
	var observers []engine.Observer
	if e.Observe != nil {
		observers = e.Observe(c.spec, strat.Name(), c.hours)
	}
	obs, spans := e.sink.cell(slot, provenance.Stamp{
		Strategy: strat.Name(), Scenario: c.scenario, Service: serviceName(c.spec),
		Interval: fmt.Sprintf("%dh", c.hours), Seed: c.seed,
	})
	observers = append(observers, obs...)
	res, err := replay.Run(replay.Config{
		Traces:                 c.set,
		Start:                  e.TrainWeeks * Week,
		End:                    end,
		Spec:                   c.spec,
		Strategy:               strat,
		IntervalMinutes:        c.hours * 60,
		Seed:                   seed,
		InjectHardwareFailures: true,
		Models:                 e.Models,
		Observers:              observers,
		Chaos:                  c.chaos,
		ChaosSeed:              e.ChaosSeed,
		Spans:                  spans,
		Workload:               c.workload,
	})
	if err != nil {
		label := fmt.Sprintf("%s/%s/%dh seed %d", serviceName(c.spec), strat.Name(), c.hours, c.seed)
		if c.scenario != "" {
			label += " under " + c.scenario
		}
		return nil, fmt.Errorf("experiments: %s: %w", label, err)
	}
	// Per-run observers (e.g. provenance.Ledger) finalize open state —
	// e.g. a quorum-down span still open at the end of accounting.
	for _, o := range observers {
		if cl, ok := o.(interface{ CloseRun(endMinute int64) }); ok {
			cl.CloseRun(e.TrainWeeks*Week + res.TotalMinutes)
		}
	}
	e.sink.done(slot, res)
	return res, nil
}

// ReplayIntervals replays one strategy at each of the given bidding
// intervals — a one-strategy grid, results in input order, every cell
// on Env.Seed itself (cmd/replay's -seed, not a derived cell seed).
func (e Env) ReplayIntervals(spec strategy.ServiceSpec, build strategy.Builder, intervals []int64) ([]*replay.Result, error) {
	set, err := e.Traces(spec.Type)
	if err != nil {
		return nil, err
	}
	cells := make([]cell, len(intervals))
	for i, h := range intervals {
		cells[i] = e.cell(set, spec, build, h)
		cells[i].typed = true
	}
	return e.runGrid(cells)
}

// SweepRow is one replay cell of a printed table: a Figures 6–9 sweep
// cell, a Figure 5 bar, or a labelled variant of an ablation (Strategy
// then holds the variant's label).
type SweepRow struct {
	Service       string
	Strategy      string
	IntervalHours int64
	Cost          market.Money
	Availability  float64
	OutOfBid      int
	Decisions     int
	MeanGroupSize float64
}

// tabulate runs a grid and folds each cell's result into a row,
// labelled labels[i] when labels are given, by its strategy otherwise.
func (e Env) tabulate(cells []cell, labels ...string) ([]SweepRow, error) {
	results, err := e.runGrid(cells)
	if err != nil {
		return nil, err
	}
	rows := make([]SweepRow, len(cells))
	for i, res := range results {
		rows[i] = SweepRow{
			Service:       serviceName(cells[i].spec),
			Strategy:      res.Strategy,
			IntervalHours: cells[i].hours,
			Cost:          res.Cost,
			Availability:  res.Availability,
			OutOfBid:      res.OutOfBid,
			Decisions:     res.Decisions,
			MeanGroupSize: res.MeanGroupSize,
		}
		if labels != nil {
			rows[i].Strategy = labels[i]
		}
	}
	return rows, nil
}

// SweepIntervals are the bidding intervals of §5.5.
var SweepIntervals = []int64{1, 3, 6, 9, 12}

// sweepSpecs is the §5.5 roster as strategy specs, in the paper's
// figure order: the same construction path as any user-supplied
// strategy list, each builder a fresh instance per cell.
var sweepSpecs = []string{"jupiter", "extra(0, 0.2)", "extra(2, 0.2)", "baseline"}

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

// longestFirst maps forEachCell's dispatch index onto a grid: dispatch
// runs the cells longest interval first, grid order kept among equal
// intervals. A price model the cells share is then first asked for its
// forecast profile at the longest horizon any cell will ask, and every
// shorter cell reads a prefix of that table instead of rebuilding it —
// bit for bit the table its own build would give (smc.Model.fresh). fn
// still receives grid indices, so output slots keep the grid order.
func longestFirst(cells []cell, fn func(i int) error) func(k int) error {
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cells[b].hours, cells[a].hours) })
	return func(k int) error { return fn(order[k]) }
}

// forEachCell runs fn for every index in [0, n) on a pool of jobs
// workers; zero or one is one worker, which runs the cells in index
// order. Output slots are indexed, and the first error by index wins
// regardless of completion order, so a parallel run returns exactly
// what the sequential one would.
func forEachCell(n, jobs int, fn func(i int) error) error {
	jobs = max(1, min(jobs, n))
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
// 6/7 for the lock service, 8/9 for storage): one grid of (interval,
// strategy) cells, the rows in its interval-major order at any Jobs.
func (e Env) Sweep(spec strategy.ServiceSpec, serviceName string) ([]SweepRow, error) {
	set, err := e.Traces(spec.Type)
	if err != nil {
		return nil, err
	}
	builders, err := BuildSpecs(sweepSpecs)
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, h := range SweepIntervals {
		for _, build := range builders {
			cells = append(cells, e.cell(set, spec, build, h))
		}
	}
	rows, err := e.tabulate(cells)
	for i := range rows {
		rows[i].Service = serviceName
	}
	return rows, err
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
	// JupiterAvailability and BaselineAvailability are the measured
	// availabilities of the two costs compared.
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
			// Preference: meeting the target, then the lower cost among
			// intervals that meet it, the higher availability among
			// intervals that do not.
			meets := r.Availability >= targetAvailability
			curMeets := h.JupiterAvailability >= targetAvailability
			if !haveJup || meets && (!curMeets || r.Cost < h.JupiterBestCost) ||
				!meets && !curMeets && r.Availability > h.JupiterAvailability {
				h.JupiterBestCost = r.Cost
				h.JupiterBestHours = r.IntervalHours
				h.JupiterAvailability = r.Availability
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
