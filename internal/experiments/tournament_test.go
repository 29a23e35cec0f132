package experiments

import (
	"bytes"
	"math"
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

// TestTournamentAcceptance is the arena's headline property: Jupiter
// meets the availability bound on every scenario, and every rival
// either violates the bound somewhere or pays more on average.
func TestTournamentAcceptance(t *testing.T) {
	res := quickTournament(t, nil)
	if len(res.Rows) < 6 {
		t.Fatalf("roster of %d strategies, want >= 6", len(res.Rows))
	}
	if len(res.Scenarios) < 5 {
		t.Fatalf("%d scenarios, want >= 5", len(res.Scenarios))
	}
	if len(res.Seeds) < 3 {
		t.Fatalf("%d seeds, want >= 3", len(res.Seeds))
	}
	ji := rowIndex(res.Rows, "Jupiter")
	if ji < 0 {
		t.Fatal("no Jupiter row")
	}
	jup := res.Rows[ji]
	if jup.ScenariosMet != len(res.Scenarios) {
		var miss []string
		for _, s := range jup.Scenarios {
			if !s.MeetsBound {
				miss = append(miss, s.Scenario)
			}
		}
		t.Fatalf("Jupiter misses the availability bound on %s", strings.Join(miss, ", "))
	}
	brokenRival := false
	for _, row := range res.Rows {
		if row.Strategy == "Jupiter" {
			continue
		}
		if row.ScenariosMet < len(res.Scenarios) || row.MeanCostDollars > jup.MeanCostDollars {
			brokenRival = true
		} else {
			t.Errorf("rival %s meets every bound at mean cost %.2f <= Jupiter's %.2f",
				row.Strategy, row.MeanCostDollars, jup.MeanCostDollars)
		}
	}
	if !brokenRival {
		t.Error("no rival violates a bound or costs more than Jupiter — the arena proves nothing")
	}
	// The grid must be complete: every (strategy, scenario, seed) cell.
	if want := len(res.Rows) * len(res.Scenarios) * len(res.Seeds); len(res.Cells) != want {
		t.Fatalf("%d cells, want %d", len(res.Cells), want)
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
// (and the baseline) with a per-seed synthetic workload; Jupiter must
// still meet the availability bound on a flash-crowd scenario while
// the fleet actually resizes, and the autoscaled run must differ from
// the fixed-size one.
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
	ji := rowIndex(auto.Rows, "Jupiter")
	if ji < 0 {
		t.Fatal("no Jupiter row")
	}
	if met := auto.Rows[ji].ScenariosMet; met != len(auto.Scenarios) {
		t.Errorf("autoscaled Jupiter meets %d/%d bounds", met, len(auto.Scenarios))
	}
	fi := rowIndex(fixed.Rows, "Jupiter")
	if fixed.Rows[fi].MeanCostDollars == auto.Rows[ji].MeanCostDollars &&
		fixed.Rows[fi].MeanAvailability == auto.Rows[ji].MeanAvailability {
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

// TestTournamentZeroEpsilon: an epsilon of 0 is honoured, not replaced
// by the default slack — the bound is the clean baseline itself.
func TestTournamentZeroEpsilon(t *testing.T) {
	res, err := QuickEnv().Tournament(TournamentConfig{
		Specs: []string{"baseline"}, Scenarios: []string{"calm"}, Seeds: []uint64{2014},
		IntervalHours: 3, Epsilon: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon != 0 || res.Bound != res.BaselineAvailability {
		t.Errorf("epsilon %v, bound %v, want 0 and the baseline's %v", res.Epsilon, res.Bound, res.BaselineAvailability)
	}
}

// TestTournamentRejectsBadConfig: an interval below one hour, a
// negative or NaN epsilon and an empty seed, strategy or scenario list
// are errors.
func TestTournamentRejectsBadConfig(t *testing.T) {
	for name, edit := range map[string]func(*TournamentConfig){
		"zero interval":     func(c *TournamentConfig) { c.IntervalHours = 0 },
		"negative interval": func(c *TournamentConfig) { c.IntervalHours = -3 },
		"negative epsilon":  func(c *TournamentConfig) { c.Epsilon = -0.01 },
		"NaN epsilon":       func(c *TournamentConfig) { c.Epsilon = math.NaN() },
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
