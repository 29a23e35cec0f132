package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// quickTournament runs the shipped arena — the full default roster,
// every builtin scenario, the default three seeds — at the quick scale.
func quickTournament(t *testing.T, sink *Sink) *TournamentResult {
	t.Helper()
	e := QuickEnv()
	e.Jobs = 4
	e.sink = sink
	res, err := e.Tournament(DefaultTournamentConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTournamentFrontier checks the arena's one rule on the shipped
// arena: every score sums its cells, cites the cheapest other entry
// with no more down-minutes when there is one and none otherwise, every
// scenario has a frontier, and rows come in rule order.
func TestTournamentFrontier(t *testing.T) {
	res := quickTournament(t, nil)
	nS, nC, nK := len(res.Rows), len(res.Scenarios), len(res.Seeds)
	if nS < 8 || nC < 5 || nK < 3 {
		t.Fatalf("%d strategies x %d scenarios x %d seeds, want at least 8 x 5 x 3", nS, nC, nK)
	}
	// The grid must be complete: every (strategy, scenario, seed) cell.
	if len(res.Cells) != nS*nC*nK {
		t.Fatalf("%d cells, want %d", len(res.Cells), nS*nC*nK)
	}
	type key struct{ strategy, scenario string }
	cost, down, seen := map[key]float64{}, map[key]int64{}, map[key]int{}
	for _, c := range res.Cells {
		k := key{c.Strategy, c.Scenario}
		cost[k] += c.CostDollars
		down[k] += c.DownMinutes
		seen[k]++
	}
	frontiers := make([]int, nC)
	for i, row := range res.Rows {
		if i > 0 {
			p := res.Rows[i-1]
			if p.DownMinutes > row.DownMinutes || p.DownMinutes == row.DownMinutes &&
				(p.CostDollars > row.CostDollars || p.CostDollars == row.CostDollars && p.Strategy >= row.Strategy) {
				t.Errorf("row %d (%s) listed after %s out of rule order", i+1, row.Strategy, p.Strategy)
			}
		}
		var rowCost float64
		var rowDown int64
		frontier := 0
		for ci, s := range row.Scenarios {
			k := key{row.Strategy, s.Scenario}
			if seen[k] != nK || s.CostDollars != cost[k] || s.DownMinutes != down[k] {
				t.Errorf("%v: score $%.2f / %d min, its %d cells sum to $%.2f / %d min",
					k, s.CostDollars, s.DownMinutes, seen[k], cost[k], down[k])
			}
			rowCost += s.CostDollars
			rowDown += s.DownMinutes
			// The cheapest entry with no more down-minutes, on a cost
			// tie the one listed first.
			cheapest, best := "", s.CostDollars
			for _, o := range res.Rows {
				os := o.Scenarios[ci]
				if o.Strategy != row.Strategy && os.DownMinutes <= s.DownMinutes && os.CostDollars < best {
					cheapest, best = o.Strategy, os.CostDollars
				}
			}
			if saving := s.CostDollars - best; s.Cheaper != cheapest || s.Saving != saving {
				t.Errorf("%v cites %q saving $%.2f, want %q saving $%.2f", k, s.Cheaper, s.Saving, cheapest, saving)
			}
			if s.Cheaper == "" {
				frontier++
				frontiers[ci]++
			}
		}
		if row.CostDollars != rowCost || row.DownMinutes != rowDown || row.Frontier != frontier {
			t.Errorf("%s: row $%.2f / %d min / frontier %d, its scores give $%.2f / %d min / %d",
				row.Strategy, row.CostDollars, row.DownMinutes, row.Frontier, rowCost, rowDown, frontier)
		}
	}
	for ci, n := range frontiers {
		if n == 0 {
			t.Errorf("scenario %s has no frontier entry", res.Scenarios[ci])
		}
	}
}

// TestFrontierRule pins the rule on hand-built scores: only a strictly
// cheaper entry with no more down-minutes is cited, the cheapest of
// them wins, and rows list fewest down-minutes, then cheapest, then by
// name.
func TestFrontierRule(t *testing.T) {
	type entry struct {
		name string
		cost float64
		down int64
	}
	for _, c := range []struct {
		name    string
		entries []entry
		order   []string
		cheaper map[string]string
		saving  map[string]float64
	}{
		{
			name:    "equal cost is not cheaper",
			entries: []entry{{"A", 10, 5}, {"B", 10, 0}},
			order:   []string{"B", "A"},
		},
		{
			name:    "equal down-minutes at lower cost is",
			entries: []entry{{"A", 10, 5}, {"B", 8, 5}},
			order:   []string{"B", "A"},
			cheaper: map[string]string{"A": "B"},
			saving:  map[string]float64{"A": 2},
		},
		{
			name:    "cheaper at more down-minutes is not",
			entries: []entry{{"A", 10, 5}, {"B", 1, 6}},
			order:   []string{"A", "B"},
		},
		{
			name:    "the cheapest qualifying entry wins",
			entries: []entry{{"A", 10, 5}, {"B", 7, 4}, {"C", 4, 5}, {"D", 1, 9}},
			order:   []string{"B", "C", "A", "D"},
			cheaper: map[string]string{"A": "C"},
			saving:  map[string]float64{"A": 6},
		},
		{
			name:    "a tie in cost goes to the entry listed first",
			entries: []entry{{"A", 10, 5}, {"C", 4, 3}, {"B", 4, 3}},
			order:   []string{"B", "C", "A"},
			cheaper: map[string]string{"A": "B"},
			saving:  map[string]float64{"A": 6},
		},
		{
			name:    "identical scores are both on the frontier",
			entries: []entry{{"B", 3, 2}, {"A", 3, 2}},
			order:   []string{"A", "B"},
		},
	} {
		var rows []TournamentRow
		for _, e := range c.entries {
			rows = append(rows, TournamentRow{Strategy: e.name, CostDollars: e.cost, DownMinutes: e.down,
				Scenarios: []ScenarioScore{{Scenario: "calm", CostDollars: e.cost, DownMinutes: e.down}}})
		}
		frontier(rows)
		var order []string
		for _, row := range rows {
			order = append(order, row.Strategy)
			s := row.Scenarios[0]
			if s.Cheaper != c.cheaper[row.Strategy] || s.Saving != c.saving[row.Strategy] {
				t.Errorf("%s: %s cites %q saving %v, want %q saving %v", c.name, row.Strategy,
					s.Cheaper, s.Saving, c.cheaper[row.Strategy], c.saving[row.Strategy])
			}
			want := 0
			if s.Cheaper == "" {
				want = 1
			}
			if row.Frontier != want {
				t.Errorf("%s: %s frontier %d, want %d", c.name, row.Strategy, row.Frontier, want)
			}
		}
		if got, want := strings.Join(order, ","), strings.Join(c.order, ","); got != want {
			t.Errorf("%s: rows %s, want %s", c.name, got, want)
		}
	}
}

// TestTournamentDeterminism: equal-seed tournaments render
// byte-identical leaderboards, JSON and table alike, at any
// parallelism.
func TestTournamentDeterminism(t *testing.T) {
	a := quickTournament(t, nil)
	e := QuickEnv()
	e.Jobs = 1 // sequential must equal parallel
	b, err := e.Tournament(DefaultTournamentConfig())
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("equal-seed leaderboards differ:\n%s\nvs\n%s", aj, bj)
	}
	if ra, rb := RenderTournament(a), RenderTournament(b); ra != rb {
		t.Fatalf("equal-seed tables differ:\n%s\nvs\n%s", ra, rb)
	}
}

// TestTournamentAutoscaledCell: the Autoscale option arms every cell
// with a per-seed synthetic workload, so the autoscaled run must differ
// from the fixed-size one, and it is as repeatable.
func TestTournamentAutoscaledCell(t *testing.T) {
	e := QuickEnv()
	cfg := DefaultTournamentConfig()
	cfg.Specs, cfg.Scenarios, cfg.Seeds = []string{"jupiter", "baseline"}, []string{"flash-crowd"}, []uint64{2014}
	fixed, err := e.Tournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Autoscale = true
	auto, err := e.Tournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The grid is strategy-major, so each run's first cell is Jupiter's.
	f, a := fixed.Cells[0], auto.Cells[0]
	if a.Strategy != "Jupiter" {
		t.Fatalf("first cell replays %s, want Jupiter", a.Strategy)
	}
	if f.CostDollars == a.CostDollars && f.DownMinutes == a.DownMinutes {
		t.Error("autoscaled cell identical to fixed-size cell: the workload never armed")
	}
	// Determinism: the autoscaled arena is as repeatable as the fixed one.
	again, err := e.Tournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := auto.JSON()
	bj, _ := again.JSON()
	if !bytes.Equal(aj, bj) {
		t.Fatalf("equal-seed autoscaled leaderboards differ:\n%s\nvs\n%s", aj, bj)
	}
}

// TestTournamentScenarioLabel: with the sink armed as -manifest arms
// it, every cell's record stamps the scenario beside strategy, service,
// interval and seed, so the manifest keys records per scenario.
func TestTournamentScenarioLabel(t *testing.T) {
	sink := &Sink{flags: Flags{Manifest: "-"}}
	res := quickTournament(t, sink)
	found := map[string]bool{}
	for _, r := range sink.manifest().Runs {
		found[r.Scenario] = true
	}
	for _, sc := range res.Scenarios {
		if !found[sc] {
			t.Errorf("no record stamped scenario=%q in the manifest", sc)
		}
	}
}

// TestTournamentRejectsBadConfig: an interval below one hour and an
// empty seed, strategy or scenario list are errors.
func TestTournamentRejectsBadConfig(t *testing.T) {
	for name, edit := range map[string]func(*TournamentConfig){
		"zero interval":     func(c *TournamentConfig) { c.IntervalHours = 0 },
		"negative interval": func(c *TournamentConfig) { c.IntervalHours = -3 },
		"no seeds":          func(c *TournamentConfig) { c.Seeds = nil },
		"no strategies":     func(c *TournamentConfig) { c.Specs = nil },
		"no scenarios":      func(c *TournamentConfig) { c.Scenarios = nil },
	} {
		cfg := DefaultTournamentConfig()
		edit(&cfg)
		if _, err := QuickEnv().Tournament(cfg); err == nil || !strings.HasPrefix(err.Error(), "experiments: ") {
			t.Errorf("%s: error %v, want a config error", name, err)
		}
	}
}
