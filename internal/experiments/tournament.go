package experiments

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/chaos"
	"repro/internal/provenance"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TournamentConfig shapes a strategy tournament: every strategy of the
// roster replays under every chaos scenario and every seed, and the
// per-cell results fold into a leaderboard at equal down-minutes.
// Env.Tournament takes it as given; DefaultTournamentConfig holds the
// defaults. No list may repeat an entry: a repeated seed or scenario
// would replay the same cells twice and sum them as if distinct.
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
	// Autoscale arms every cell with a synthetic diurnal+flash-crowd
	// request-rate trace generated per seed (workload.Generate), so the
	// whole arena competes on traffic-driven gradual resizing instead of
	// a fixed group size.
	Autoscale bool
}

// DefaultTournamentConfig is the shipped arena: the Jupiter family's
// main variants, the paper's §5.2 comparisons plus Extra(0, 1), and the
// rival strategies from the literature, under every builtin scenario,
// over three independent markets (the first is the seed every other
// experiment uses), at the chaos suite's 3-hour interval.
func DefaultTournamentConfig() TournamentConfig {
	return TournamentConfig{
		Specs: []string{
			"jupiter",
			"jupiter-adaptive",
			"extra(2, 0.2)",
			"extra(0, 1.0)",
			"baseline",
			"feedback",
			"portfolio",
			"checkpoint",
		},
		Scenarios:     chaos.BuiltinNames(),
		Seeds:         []uint64{2014, 2015, 2016},
		IntervalHours: 3,
	}
}

// TournamentCell is one replay of the grid.
type TournamentCell struct {
	Strategy    string  `json:"strategy"`
	Scenario    string  `json:"scenario"`
	Seed        uint64  `json:"seed"`
	CostDollars float64 `json:"cost_dollars"`
	DownMinutes int64   `json:"down_minutes"`
	OutOfBid    int     `json:"out_of_bid"`
}

// ScenarioScore sums one strategy's cells under one scenario over the
// seed list.
type ScenarioScore struct {
	Scenario    string  `json:"scenario"`
	CostDollars float64 `json:"cost_dollars"`
	DownMinutes int64   `json:"down_minutes"`
	// Cheaper names the cheapest other roster entry with no more
	// down-minutes under this scenario, and Saving how much less it
	// spends; an empty Cheaper puts this entry on the scenario's
	// frontier.
	Cheaper string  `json:"cheaper,omitempty"`
	Saving  float64 `json:"saving_dollars,omitempty"`
	// WorstCause, when the run's sink kept ledgers (-manifest), names
	// the attribution cause with the most downtime minutes under this
	// scenario, over its seeds ("" when the strategy had none).
	WorstCause string `json:"worst_cause,omitempty"`
}

// TournamentRow is one strategy's leaderboard line; its cost and
// down-minutes are summed over every scenario and seed.
type TournamentRow struct {
	Strategy string `json:"strategy"`
	Spec     string `json:"spec"`
	// Frontier counts the scenarios where no other entry is cheaper at
	// no more down-minutes.
	Frontier    int             `json:"frontier"`
	CostDollars float64         `json:"cost_dollars"`
	DownMinutes int64           `json:"down_minutes"`
	Scenarios   []ScenarioScore `json:"scenarios"`
}

// TournamentResult is the full outcome: config echo, the leaderboard
// in rule order, and the raw cell grid. Marshalling it is
// deterministic — every slice is explicitly ordered and nothing is
// stamped with wall-clock time.
type TournamentResult struct {
	Service       string           `json:"service"`
	IntervalHours int64            `json:"interval_hours"`
	Seeds         []uint64         `json:"seeds"`
	Scenarios     []string         `json:"scenarios"`
	Rows          []TournamentRow  `json:"rows"`
	Cells         []TournamentCell `json:"cells"`
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
// and seed — the strategy arena — and compares cost at equal
// down-minutes, summed over the seeds (see frontier). The Env's
// TrainWeeks, ReplayWeeks, Jobs, and Models are honoured; its Seed,
// Chaos, Workload and Observe are superseded by the grid coordinates.
// Grid cells report to the Env's sink labelled with their scenario —
// one slot per cell in grid order, so the manifest's records, spans
// included, are byte-identical at any Jobs setting.
func (e Env) Tournament(cfg TournamentConfig) (*TournamentResult, error) {
	if cfg.IntervalHours < 1 {
		return nil, fmt.Errorf("experiments: interval %d h below 1", cfg.IntervalHours)
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
	// every cell of that seed.
	sets := make(map[uint64]*trace.Set, len(seeds))
	workloads := make(map[uint64]*workload.Trace, len(seeds))
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
	}

	// The grid, strategy-major so each strategy's cells are contiguous.
	// One model cache serves it: chaos overlays and seeds salt the trace
	// fingerprints, so cells never read each other's models by accident —
	// they only deduplicate identical training.
	nS, nC, nK := len(builders), len(scenarios), len(seeds)
	var grid []cell
	for _, build := range builders {
		for ci := range scenarios {
			for _, seed := range seeds {
				grid = append(grid, cell{set: sets[seed], spec: spec, build: build, hours: hours, seed: seed,
					chaos: &scenarios[ci], workload: workloads[seed], scenario: scenarioNames[ci]})
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
			Strategy:    res.Strategy,
			Scenario:    grid[i].scenario,
			Seed:        grid[i].seed,
			CostDollars: res.Cost.Dollars(),
			DownMinutes: res.DownMinutes,
			OutOfBid:    res.OutOfBid,
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
				score.CostDollars += cells[i].CostDollars
				score.DownMinutes += cells[i].DownMinutes
				a, ok := e.sink.attribution(results[i])
				merged, ledgers = merged.Merge(a), ledgers && ok
			}
			if ledgers {
				score.WorstCause = merged.WorstCause()
			}
			row.CostDollars += score.CostDollars
			row.DownMinutes += score.DownMinutes
			row.Scenarios = append(row.Scenarios, score)
		}
		rows[si] = row
	}
	frontier(rows)

	return &TournamentResult{
		Service:       "lock",
		IntervalHours: hours,
		Seeds:         seeds,
		Scenarios:     scenarioNames,
		Rows:          rows,
		Cells:         cells,
	}, nil
}

// frontier applies the tournament's one rule. It sorts rows fewest
// down-minutes first, then cheapest, then by name; then, under each
// scenario, every score cites the cheapest other entry that spends
// strictly less at no more down-minutes (on a tie in cost, the one
// listed first) and counts toward its row's Frontier when there is
// none. Every row must score the same scenarios in the same order.
func frontier(rows []TournamentRow) {
	slices.SortFunc(rows, func(a, b TournamentRow) int {
		return cmp.Or(cmp.Compare(a.DownMinutes, b.DownMinutes), cmp.Compare(a.CostDollars, b.CostDollars),
			strings.Compare(a.Strategy, b.Strategy))
	})
	for i := range rows {
		for ci := range rows[i].Scenarios {
			s, best := &rows[i].Scenarios[ci], -1
			for j := range rows {
				o := rows[j].Scenarios[ci]
				if j != i && o.DownMinutes <= s.DownMinutes && o.CostDollars < s.CostDollars &&
					(best < 0 || o.CostDollars < rows[best].Scenarios[ci].CostDollars) {
					best = j
				}
			}
			if best < 0 {
				rows[i].Frontier++
				continue
			}
			s.Cheaper, s.Saving = rows[best].Strategy, s.CostDollars-rows[best].Scenarios[ci].CostDollars
		}
	}
}

// RenderTournament renders the leaderboard as a text table. A row's
// note lists, per scenario where it is off the frontier, the cheapest
// entry with no more down-minutes and what it saves.
func RenderTournament(r *TournamentResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy arena: %d strategies x %d scenarios x %d seeds, %dh interval\n",
		len(r.Rows), len(r.Scenarios), len(r.Seeds), r.IntervalHours)
	fmt.Fprintf(&b, "cost and down-minutes summed over the seeds; a note names the cheapest entry with no more down-minutes\n\n")
	fmt.Fprintf(&b, "%-18s %-9s %11s %9s  %s\n", "strategy", "frontier", "cost $", "down-min", "notes")
	for _, row := range r.Rows {
		var notes []string
		for _, s := range row.Scenarios {
			if s.Cheaper != "" {
				notes = append(notes, fmt.Sprintf("%s: %s $%.2f cheaper", s.Scenario, s.Cheaper, s.Saving))
			}
		}
		line := fmt.Sprintf("%-18s %6d/%-2d %11.2f %9d  %s", row.Strategy, row.Frontier, len(r.Scenarios),
			row.CostDollars, row.DownMinutes, strings.Join(notes, "; "))
		fmt.Fprintln(&b, strings.TrimRight(line, " "))
	}
	return b.String()
}
