package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestStrategyListingsUnchanged pins, byte for byte, the strategy block
// of "tournament -list" and the family names replay's -strategy help
// lists, as both printed before the strategy table replaced the plug-in
// registry they were read from.
func TestStrategyListingsUnchanged(t *testing.T) {
	out, err := captured(t, func() error { return runTournament([]string{"-list"}) })
	if err != nil {
		t.Fatal(err)
	}
	const want = `strategies:
  baseline             paper §5.2 baseline: BaseNodes' worth of on-demand capacity, never bids
  checkpoint | checkpoint(restartMinutes) low-bid checkpoint/restart bidder with restart-cost accounting (Voorsluys & Buyya)
  extra(m, p)          paper §5.2 heuristic: n+m cheapest pools at spot price times (1+p)
  feedback | feedback(epsilon) PI-controller bidding toward a target out-of-bid fraction (arXiv 1708.01391)
  jupiter              the paper's bidding framework: availability-model DP over bid levels (§3–4)
  jupiter-adaptive     jupiter wrapped with the volatility-driven interval chooser
  jupiter-refine       jupiter with the §4.3 refinement pass over adjacent bid levels
  portfolio | portfolio(beta) optimized on-demand/spot portfolio under an expected-cost cap (arXiv 1811.12901)
scenarios:
`
	if !strings.HasPrefix(out, want) {
		t.Errorf("tournament -list prints\n%s\nwant it to start\n%s", out, want)
	}
	const names = "baseline, checkpoint, extra, feedback, jupiter, jupiter-adaptive, jupiter-refine, portfolio"
	if got := strings.Join(experiments.Names(), ", "); got != names {
		t.Errorf("replay -strategy help lists %q, want %q", got, names)
	}
}

// TestTournamentFlagsRejected: -interval below 1 and a negative
// -epsilon are errors, not silently replaced by the defaults.
func TestTournamentFlagsRejected(t *testing.T) {
	for _, args := range [][]string{{"-interval", "0"}, {"-epsilon", "-0.5"}} {
		if _, err := captured(t, func() error { return runTournament(args) }); err == nil {
			t.Errorf("tournament %v: no error", args)
		}
	}
}

// TestTournamentEmptyListsRejected: an empty -strategies, -scenarios or
// -seeds list, or one with a blank element, is an error naming the
// flag, not an empty arena or a silent fall back to the defaults. The
// other flags keep the grid one cell wide, so a run that wrongly
// proceeds is short.
func TestTournamentEmptyListsRejected(t *testing.T) {
	small := map[string]string{"strategies": "baseline", "scenarios": "calm", "seeds": "2014"}
	for _, c := range []struct{ flag, value string }{
		{"strategies", ","}, {"strategies", ""}, {"strategies", "baseline,,jupiter"},
		{"scenarios", ","}, {"scenarios", " "}, {"scenarios", "calm,"},
		{"seeds", ","}, {"seeds", ""}, {"seeds", "2014,,2015"},
	} {
		args := []string{"-weeks", "1", "-train", "6"}
		for name, v := range small {
			if name == c.flag {
				v = c.value
			}
			args = append(args, "-"+name, v)
		}
		_, err := captured(t, func() error { return runTournament(args) })
		if err == nil || !strings.Contains(err.Error(), "-"+c.flag) {
			t.Errorf("tournament -%s %q: error %v, want one naming -%s", c.flag, c.value, err, c.flag)
		}
	}
}

// TestTournamentRejectsRepeats: a strategy, scenario or seed listed
// twice would replay the same cells twice and rank them as two rows or
// average them as two markets, so each is an error naming the list and
// the repeated entry — also when two specs differ only in spelling but
// build the same strategy.
func TestTournamentRejectsRepeats(t *testing.T) {
	small := map[string]string{"strategies": "baseline", "scenarios": "calm", "seeds": "2014"}
	for _, c := range []struct{ flag, value, want string }{
		{"strategies", "baseline,baseline", `strategies "baseline" and "baseline" both build Baseline`},
		{"strategies", "extra(2, 0.2),extra(2,0.2)", `strategies "extra(2, 0.2)" and "extra(2,0.2)" both build Extra(2, 0.2)`},
		{"scenarios", "calm,reclaim-storm,calm", `scenarios list "calm" twice`},
		{"seeds", "2014,7,2014", "seeds list 2014 twice"},
	} {
		args := []string{"-weeks", "1", "-train", "6"}
		for name, v := range small {
			if name == c.flag {
				v = c.value
			}
			args = append(args, "-"+name, v)
		}
		_, err := captured(t, func() error { return runTournament(args) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("tournament -%s %q: error %v, want %q", c.flag, c.value, err, c.want)
		}
	}
}
