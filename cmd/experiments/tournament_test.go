package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestStrategyListingsUnchanged pins, byte for byte, the strategy block
// of "tournament -list" and the family names replay's -strategy help
// lists, as both printed before the strategy table replaced the plug-in
// registry they were read from, less the refinement family deleted
// since.
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
  portfolio | portfolio(beta) optimized on-demand/spot portfolio under an expected-cost cap (arXiv 1811.12901)
scenarios:
`
	if !strings.HasPrefix(out, want) {
		t.Errorf("tournament -list prints\n%s\nwant it to start\n%s", out, want)
	}
	const names = "baseline, checkpoint, extra, feedback, jupiter, jupiter-adaptive, portfolio"
	if got := strings.Join(experiments.Names(), ", "); got != names {
		t.Errorf("replay -strategy help lists %q, want %q", got, names)
	}
}

// TestTournamentFlagsRejected: -interval below 1 is an error, not
// silently replaced by the default, and so are an unknown flag and a
// malformed value, which return rather than exit the process; -h prints
// the usage and is no error.
func TestTournamentFlagsRejected(t *testing.T) {
	for _, args := range [][]string{{"-interval", "0"}, {"-no-such-flag"}, {"-interval", "x"}} {
		if _, err := captured(t, func() error { return runTournament(args) }); err == nil {
			t.Errorf("tournament %v: no error", args)
		}
	}
	if _, err := captured(t, func() error { return runTournament([]string{"-h"}) }); err != nil {
		t.Errorf("tournament -h: %v", err)
	}
}

// small keeps a tournament grid one cell wide, so a run that wrongly
// proceeds is short.
var small = map[string]string{"strategies": "baseline", "scenarios": "calm", "seeds": "2014"}

// tournamentWith runs the quick one-cell tournament with flag set to
// value.
func tournamentWith(t *testing.T, flag, value string) (string, error) {
	args := []string{"-weeks", "1", "-train", "6"}
	for name, v := range small {
		if name == flag {
			v = value
		}
		args = append(args, "-"+name, v)
	}
	return captured(t, func() error { return runTournament(args) })
}

// TestTournamentEmptyListsRejected: a given -strategies, -scenarios or
// -seeds list that lists nothing is an error naming the flag, not an
// empty arena or a silent fall back to the defaults.
func TestTournamentEmptyListsRejected(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"strategies", "", "-strategies: empty list"},
		{"strategies", ",", `-strategies entry 1 (""): empty`},
		{"scenarios", " ", `-scenarios entry 1 (""): empty`},
		{"seeds", "", "-seeds: empty list"},
	} {
		if _, err := tournamentWith(t, c.flag, c.value); err == nil || err.Error() != c.want {
			t.Errorf("tournament -%s %q: error %v, want %q", c.flag, c.value, err, c.want)
		}
	}
}

// TestTournamentRejectsRepeats: two specs that differ only in spelling
// but build the same strategy would rank one strategy as two rows;
// only the strategy table knows names, so Env.Tournament refuses them.
func TestTournamentRejectsRepeats(t *testing.T) {
	_, err := tournamentWith(t, "strategies", "extra(2, 0.2),extra(2,0.2)")
	want := `experiments: strategies "extra(2, 0.2)" and "extra(2,0.2)" both build Extra(2, 0.2)`
	if err == nil || err.Error() != want {
		t.Errorf("tournament -strategies 'extra(2, 0.2),extra(2,0.2)': error %v, want %q", err, want)
	}
}

// TestListFlags: every list flag of the command and its tournament
// follows the one list rule. A blank entry or a repeated value is an
// error naming the flag and the 1-based entry, before anything runs;
// padding around an entry is trimmed.
func TestListFlags(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"types", "m1.medium,,c3.large", `-types entry 2 (""): empty`},
		{"types", "m1.medium,", `-types entry 2 (""): empty`},
		{"types", "m1.medium, m1.medium", `-types entry 2 ("m1.medium"): repeats entry 1`},
		{"strategies", "baseline,,jupiter", `-strategies entry 2 (""): empty`},
		{"strategies", "baseline,", `-strategies entry 2 (""): empty`},
		{"strategies", "baseline, baseline", `-strategies entry 2 ("baseline"): repeats entry 1`},
		{"scenarios", "calm,,reclaim-storm", `-scenarios entry 2 (""): empty`},
		{"scenarios", "calm,", `-scenarios entry 2 (""): empty`},
		{"scenarios", "calm,reclaim-storm,calm", `-scenarios entry 3 ("calm"): repeats entry 1`},
		{"seeds", "2014,,2015", `-seeds entry 2 (""): empty`},
		{"seeds", "2014,", `-seeds entry 2 (""): empty`},
		{"seeds", "2014,7,02014", `-seeds entry 3 ("02014"): repeats entry 1`},
	} {
		var out string
		var err error
		if c.flag == "types" {
			o := quick()
			o.run, o.Types = "table1", c.value
			out, err = runCaptured(t, o)
		} else {
			out, err = tournamentWith(t, c.flag, c.value)
		}
		if err == nil || err.Error() != c.want || out != "" {
			t.Errorf("-%s %q: error %v, printed %q; want %q", c.flag, c.value, err, out, c.want)
		}
	}
	o := quick()
	o.run, o.Types = "table1", " m1.medium , c3.large "
	if _, err := runCaptured(t, o); err != nil {
		t.Errorf("-types with padding: %v", err)
	}
	want, err := tournamentWith(t, "", "")
	if err != nil {
		t.Fatal(err)
	}
	for flag, value := range map[string]string{"strategies": " baseline ", "scenarios": " calm", "seeds": "2014 "} {
		if got, err := tournamentWith(t, flag, value); err != nil || got != want {
			t.Errorf("tournament -%s %q: %v, printed\n%s\nwant\n%s", flag, value, err, got, want)
		}
	}
}

// TestErrorLinesStateEachPrefixOnce: an error line names its command,
// then where the input went wrong, then the producing package's own
// message — no prefix twice.
func TestErrorLinesStateEachPrefixOnce(t *testing.T) {
	_, err := tournamentWith(t, "seeds", "2014,2014")
	if got, want := errorLine("experiments: tournament:", err), `experiments: tournament: -seeds entry 2 ("2014"): repeats entry 1`; got != want {
		t.Errorf("repeated seed prints %q, want %q", got, want)
	}
	_, err = tournamentWith(t, "strategies", "nope")
	want := `experiments: tournament: -strategies entry 1 ("nope"): strategy: unknown strategy "nope" (registered: ` +
		strings.Join(experiments.Names(), ", ") + ")"
	if got := errorLine("experiments: tournament:", err); got != want {
		t.Errorf("unknown strategy prints %q, want %q", got, want)
	}
	_, err = captured(t, func() error { return runTournament([]string{"-interval", "0"}) })
	if got, want := errorLine("experiments: tournament:", err), "experiments: interval 0 h below 1"; got != want {
		t.Errorf("-interval 0 prints %q, want %q", got, want)
	}
}
