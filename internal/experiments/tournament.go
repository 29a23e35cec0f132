package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/provenance"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TournamentConfig shapes a strategy tournament: every strategy of the
// roster replays under every chaos scenario and every seed, and the
// per-cell results fold into a leaderboard. Env.Tournament takes it as
// given; DefaultTournamentConfig holds the defaults. No list may repeat
// an entry: a repeated seed or scenario would replay the same cells
// twice and average them as if they were distinct.
type TournamentConfig struct {
	// Specs is the roster as strategy specs ("jupiter", "extra(2, 0.2)",
	// ...).
	Specs []string
	// Scenarios lists chaos scenarios — builtin names or JSON files,
	// resolved through chaos.Load.
	Scenarios []string
	// Seeds drive trace generation and replay jitter, one full
	// strategy x scenario grid per seed; at least one.
	Seeds []uint64
	// IntervalHours is the bidding interval, at least 1.
	IntervalHours int64
	// Epsilon is the availability slack below the clean on-demand
	// baseline a strategy may keep and still "meet the bound" — the
	// paper's Eq. 10 guarantee measured the way the chaos suite
	// measures it; at least 0.
	Epsilon float64
	// Autoscale arms every cell — and the clean on-demand baseline —
	// with a synthetic diurnal+flash-crowd request-rate trace generated
	// per seed (workload.Generate), so the whole arena competes on
	// traffic-driven gradual resizing instead of a fixed group size.
	Autoscale bool
}

// DefaultTournamentEpsilon is the default availability slack under
// fault injection, matching the chaos guarantee suite: decisions land
// only at interval boundaries, so a mid-interval fault can structurally
// cost up to one bidding interval of quorum before the next
// make-before-break repair.
const DefaultTournamentEpsilon = 0.02

// DefaultTournamentConfig is the shipped arena: the Jupiter family's
// main variants, the paper's §5.2 comparisons and the rival strategies
// from the literature, under every builtin scenario, over three
// independent markets (the first is the seed every other experiment
// uses), at the chaos suite's 3-hour interval.
func DefaultTournamentConfig() TournamentConfig {
	return TournamentConfig{
		Specs: []string{
			"jupiter",
			"jupiter-adaptive",
			"extra(2, 0.2)",
			"baseline",
			"feedback",
			"portfolio",
			"checkpoint",
		},
		Scenarios:     chaos.BuiltinNames(),
		Seeds:         []uint64{2014, 2015, 2016},
		IntervalHours: 3,
		Epsilon:       DefaultTournamentEpsilon,
	}
}

// TournamentCell is one replay of the grid.
type TournamentCell struct {
	Strategy     string  `json:"strategy"`
	Scenario     string  `json:"scenario"`
	Seed         uint64  `json:"seed"`
	CostDollars  float64 `json:"cost_dollars"`
	Availability float64 `json:"availability"`
	OutOfBid     int     `json:"out_of_bid"`
}

// ScenarioScore aggregates one strategy's cells under one scenario
// across the seed list.
type ScenarioScore struct {
	Scenario         string  `json:"scenario"`
	MeanCostDollars  float64 `json:"mean_cost_dollars"`
	MeanAvailability float64 `json:"mean_availability"`
	// MeetsBound is the availability verdict: mean availability at
	// least the clean baseline's minus epsilon.
	MeetsBound bool `json:"meets_bound"`
	// WorstCause, when the run's sink kept ledgers (-manifest), names
	// the attribution cause with the most downtime minutes under this
	// scenario, over its seeds ("" when the strategy had none).
	WorstCause string `json:"worst_cause,omitempty"`
}

// TournamentRow is one strategy's leaderboard line.
type TournamentRow struct {
	Rank     int    `json:"rank"`
	Strategy string `json:"strategy"`
	Spec     string `json:"spec"`
	// ScenariosMet counts scenarios whose availability bound held.
	ScenariosMet     int             `json:"scenarios_met"`
	MeanCostDollars  float64         `json:"mean_cost_dollars"`
	MeanAvailability float64         `json:"mean_availability"`
	Scenarios        []ScenarioScore `json:"scenarios"`
	// DominatedOn lists scenarios where Jupiter Pareto-dominates this
	// strategy: no dearer and no less available, strictly better in one.
	DominatedOn []string `json:"dominated_on,omitempty"`
	// BeatsJupiterOn lists scenarios where this strategy meets the
	// bound at strictly lower mean cost than Jupiter.
	BeatsJupiterOn []string `json:"beats_jupiter_on,omitempty"`
}

// TournamentResult is the full outcome: config echo, the availability
// bound, the ranked leaderboard, and the raw cell grid. Marshalling it
// is deterministic — every slice is explicitly ordered and nothing is
// stamped with wall-clock time.
type TournamentResult struct {
	Service       string   `json:"service"`
	IntervalHours int64    `json:"interval_hours"`
	Epsilon       float64  `json:"epsilon"`
	Seeds         []uint64 `json:"seeds"`
	Scenarios     []string `json:"scenarios"`
	// BaselineAvailability is the clean (chaos-free) on-demand
	// baseline's mean availability over the seeds; the bound every
	// scenario score is judged against is this minus Epsilon.
	BaselineAvailability float64          `json:"baseline_availability"`
	Bound                float64          `json:"bound"`
	Rows                 []TournamentRow  `json:"rows"`
	Cells                []TournamentCell `json:"cells"`
}

// JSON renders the leaderboard for machines (leaderboard.json).
func (r *TournamentResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Tournament replays every roster strategy under every chaos scenario
// and seed — the strategy arena — and ranks them: most availability
// bounds met first, mean cost as the tiebreaker. The Env's TrainWeeks,
// ReplayWeeks, Jobs, and Models are honoured; its Seed, Chaos, Workload
// and Observe are superseded by the grid coordinates. Grid cells report
// to the Env's sink labelled with their scenario — one slot per cell in
// grid order, so the manifest's records, spans included, are
// byte-identical at any Jobs setting; the clean baseline replays stay
// unrecorded.
func (e Env) Tournament(cfg TournamentConfig) (*TournamentResult, error) {
	if cfg.IntervalHours < 1 {
		return nil, fmt.Errorf("experiments: interval %d h below 1", cfg.IntervalHours)
	}
	if !(cfg.Epsilon >= 0) {
		return nil, fmt.Errorf("experiments: epsilon %v below 0", cfg.Epsilon)
	}
	if len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds")
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("experiments: no strategies")
	}
	if len(cfg.Scenarios) == 0 {
		return nil, fmt.Errorf("experiments: no scenarios")
	}
	specs, scenarioNames, seeds, hours := cfg.Specs, cfg.Scenarios, cfg.Seeds, cfg.IntervalHours
	builders, err := BuildSpecs(specs)
	if err != nil {
		return nil, err
	}
	built := map[string]string{} // strategy name -> the spec that built it
	for i, build := range builders {
		name := build().Name()
		if first, ok := built[name]; ok {
			return nil, fmt.Errorf("experiments: strategies %q and %q both build %s", first, specs[i], name)
		}
		built[name] = specs[i]
	}
	scenarios := make([]chaos.Scenario, len(scenarioNames))
	for i, s := range scenarioNames {
		sc, err := chaos.Load(s)
		if err != nil {
			return nil, err
		}
		scenarios[i] = sc
	}

	spec := LockSpec()

	// Per-seed market histories, generated once and shared read-only by
	// every cell of that seed; sc nil is the clean market.
	sets := make(map[uint64]*trace.Set, len(seeds))
	workloads := make(map[uint64]*workload.Trace, len(seeds))
	cellAt := func(build strategy.Builder, sc *chaos.Scenario, name string, seed uint64) cell {
		return cell{set: sets[seed], spec: spec, build: build, hours: hours, seed: seed,
			chaos: sc, workload: workloads[seed], scenario: name}
	}
	var baseline []cell
	for _, seed := range seeds {
		se := e
		se.Seed = seed
		if sets[seed], err = se.Traces(spec.Type); err != nil {
			return nil, err
		}
		if cfg.Autoscale {
			workloads[seed], err = workload.Generate(workload.GenConfig{
				Seed:  seed,
				Start: e.TrainWeeks * Week,
				End:   (e.TrainWeeks + e.ReplayWeeks) * Week,
			})
			if err != nil {
				return nil, err
			}
		}
		baseline = append(baseline, cellAt(func() strategy.Strategy { return strategy.OnDemand{} }, nil, "", seed))
	}

	// The availability bound: the clean on-demand baseline, per seed,
	// chaos-free and unrecorded — what the paper's Eq. 10 guarantee
	// promises to match.
	clean := e
	clean.sink = nil
	base, err := clean.runGrid(baseline)
	if err != nil {
		return nil, err
	}
	var baseAvail float64
	for _, res := range base {
		baseAvail += res.Availability
	}
	baseAvail /= float64(len(seeds))
	bound := baseAvail - cfg.Epsilon

	// The grid, strategy-major so each strategy's cells are contiguous.
	// One model cache serves it: chaos overlays and seeds salt the trace
	// fingerprints, so cells never read each other's models by accident —
	// they only deduplicate identical training.
	nS, nC, nK := len(builders), len(scenarios), len(seeds)
	var grid []cell
	for _, build := range builders {
		for ci := range scenarios {
			for _, seed := range seeds {
				grid = append(grid, cellAt(build, &scenarios[ci], scenarioNames[ci], seed))
			}
		}
	}
	e.Observe = nil
	results, err := e.runGrid(grid)
	if err != nil {
		return nil, err
	}
	cells := make([]TournamentCell, len(grid))
	for i, res := range results {
		cells[i] = TournamentCell{
			Strategy:     res.Strategy,
			Scenario:     grid[i].scenario,
			Seed:         grid[i].seed,
			CostDollars:  res.Cost.Dollars(),
			Availability: res.Availability,
			OutOfBid:     res.OutOfBid,
		}
	}

	// Fold cells into per-strategy rows. With the sink's ledgers kept, a
	// score cites the cause that cost its (strategy, scenario) pair the
	// most downtime over the seeds — which cause broke each rival.
	rows := make([]TournamentRow, nS)
	for si := 0; si < nS; si++ {
		row := TournamentRow{Strategy: cells[si*nC*nK].Strategy, Spec: specs[si]}
		for ci := 0; ci < nC; ci++ {
			score := ScenarioScore{Scenario: scenarioNames[ci]}
			var merged provenance.Attribution
			ledgers := true
			for ki := 0; ki < nK; ki++ {
				i := (si*nC+ci)*nK + ki
				score.MeanCostDollars += cells[i].CostDollars
				score.MeanAvailability += cells[i].Availability
				a, ok := e.sink.attribution(results[i])
				merged, ledgers = merged.Merge(a), ledgers && ok
			}
			score.MeanCostDollars /= float64(nK)
			score.MeanAvailability /= float64(nK)
			score.MeetsBound = score.MeanAvailability >= bound
			if ledgers {
				score.WorstCause = merged.WorstCause()
			}
			if score.MeetsBound {
				row.ScenariosMet++
			}
			row.MeanCostDollars += score.MeanCostDollars
			row.MeanAvailability += score.MeanAvailability
			row.Scenarios = append(row.Scenarios, score)
		}
		row.MeanCostDollars /= float64(nC)
		row.MeanAvailability /= float64(nC)
		rows[si] = row
	}

	// Dominance annotations against the Jupiter row, when present.
	if ji := rowIndex(rows, "Jupiter"); ji >= 0 {
		for i := range rows {
			if i == ji {
				continue
			}
			for ci := range rows[i].Scenarios {
				r, j := rows[i].Scenarios[ci], rows[ji].Scenarios[ci]
				if j.MeanCostDollars <= r.MeanCostDollars && j.MeanAvailability >= r.MeanAvailability &&
					(j.MeanCostDollars < r.MeanCostDollars || j.MeanAvailability > r.MeanAvailability) {
					rows[i].DominatedOn = append(rows[i].DominatedOn, r.Scenario)
				}
				if r.MeetsBound && r.MeanCostDollars < j.MeanCostDollars {
					rows[i].BeatsJupiterOn = append(rows[i].BeatsJupiterOn, r.Scenario)
				}
			}
		}
	}

	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].ScenariosMet != rows[j].ScenariosMet {
			return rows[i].ScenariosMet > rows[j].ScenariosMet
		}
		if rows[i].MeanCostDollars != rows[j].MeanCostDollars {
			return rows[i].MeanCostDollars < rows[j].MeanCostDollars
		}
		return rows[i].Strategy < rows[j].Strategy
	})
	for i := range rows {
		rows[i].Rank = i + 1
	}

	return &TournamentResult{
		Service:              "lock",
		IntervalHours:        hours,
		Epsilon:              cfg.Epsilon,
		Seeds:                seeds,
		Scenarios:            scenarioNames,
		BaselineAvailability: baseAvail,
		Bound:                bound,
		Rows:                 rows,
		Cells:                cells,
	}, nil
}

// rowIndex finds a leaderboard row by strategy name.
func rowIndex(rows []TournamentRow, name string) int {
	for i, r := range rows {
		if r.Strategy == name {
			return i
		}
	}
	return -1
}

// RenderTournament renders the leaderboard as a text table with
// dominance annotations.
func RenderTournament(r *TournamentResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy arena: %d strategies x %d scenarios x %d seeds, %dh interval\n",
		len(r.Rows), len(r.Scenarios), len(r.Seeds), r.IntervalHours)
	fmt.Fprintf(&b, "availability bound: %.6f (clean baseline %.6f - epsilon %.2f)\n\n",
		r.Bound, r.BaselineAvailability, r.Epsilon)
	fmt.Fprintf(&b, "%-4s %-18s %-10s %13s %13s  %s\n",
		"rank", "strategy", "bound met", "mean cost $", "mean avail", "notes")
	for _, row := range r.Rows {
		note := ""
		switch {
		case len(row.BeatsJupiterOn) > 0:
			note = "beats Jupiter on " + strings.Join(row.BeatsJupiterOn, ", ")
		case len(row.DominatedOn) == len(r.Scenarios) && len(r.Scenarios) > 0:
			note = "dominated by Jupiter everywhere"
		case len(row.DominatedOn) > 0:
			note = "dominated by Jupiter on " + strings.Join(row.DominatedOn, ", ")
		}
		fmt.Fprintf(&b, "%-4d %-18s %6d/%-3d %13.2f %13.6f  %s\n",
			row.Rank, row.Strategy, row.ScenariosMet, len(r.Scenarios),
			row.MeanCostDollars, row.MeanAvailability, note)
	}
	var worst []string
	for _, row := range r.Rows {
		if row.ScenariosMet < len(r.Scenarios) {
			var miss []string
			for _, s := range row.Scenarios {
				if !s.MeetsBound {
					// With attribution on, cite the cause that cost the
					// most downtime under the missed scenario.
					if s.WorstCause != "" {
						miss = append(miss, fmt.Sprintf("%s (worst cause: %s)", s.Scenario, s.WorstCause))
					} else {
						miss = append(miss, s.Scenario)
					}
				}
			}
			worst = append(worst, fmt.Sprintf("%s misses %s", row.Strategy, strings.Join(miss, ", ")))
		}
	}
	if len(worst) > 0 {
		fmt.Fprintf(&b, "\nbound violations: %s\n", strings.Join(worst, "; "))
	}
	return b.String()
}
