package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/experiments"
)

// runTournament is the "experiments tournament" subcommand: the
// strategy arena. Every roster strategy replays under every chaos
// scenario and seed at paper length; the leaderboard compares cost at
// equal down-minutes.
func runTournament(args []string) error {
	fs := flag.NewFlagSet("tournament", flag.ContinueOnError)
	cfg := experiments.DefaultTournamentConfig()
	fs.String("strategies", "", "comma-separated strategy specs (default: the shipped arena roster); see -list")
	fs.String("scenarios", "", "comma-separated chaos scenarios, builtin names or JSON files (default: every builtin)")
	fs.String("seeds", "", "comma-separated replay seeds (default "+joinSeeds(cfg.Seeds)+")")
	fs.Int64Var(&cfg.IntervalHours, "interval", cfg.IntervalHours, "bidding interval in hours (at least 1)")
	fs.BoolVar(&cfg.Autoscale, "autoscale", false, "arm every cell with a per-seed synthetic diurnal+flash-crowd workload so fleets resize during the run")
	jsonOut := fs.String("json", "", "write the leaderboard as JSON to this file ('-' = stdout)")
	var shared experiments.Flags
	shared.Register(fs, "weeks", "train", "j", "manifest", "spans-sample")
	list := fs.Bool("list", false, "list the strategy table's families and the builtin scenarios, then exit")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: experiments tournament [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage
		}
		return err
	}
	if *list {
		fmt.Println("strategies:")
		for _, f := range experiments.Families {
			fmt.Printf("  %-20s %s\n", f.Usage, f.Description)
		}
		fmt.Println("scenarios:")
		for _, name := range chaos.BuiltinNames() {
			sc, _ := chaos.Builtin(name)
			fmt.Printf("  %-20s %s\n", name, sc.Description)
		}
		return nil
	}

	err := parseGiven(fs, "strategies", &cfg.Specs, func(spec string) (string, error) {
		_, err := experiments.Build(spec)
		return spec, err
	})
	if err == nil {
		err = parseGiven(fs, "scenarios", &cfg.Scenarios, func(name string) (string, error) { return name, nil })
	}
	if err == nil {
		err = parseGiven(fs, "seeds", &cfg.Seeds, func(seed string) (uint64, error) { return strconv.ParseUint(seed, 10, 64) })
	}
	if err != nil {
		return err
	}
	// The run's record names the grid: the manifest's seed is the first
	// market's, and its config carries every seed and scenario.
	kv := []string{
		"seeds", joinSeeds(cfg.Seeds),
		"scenarios", strings.Join(cfg.Scenarios, ","),
		"interval", strconv.FormatInt(cfg.IntervalHours, 10),
	}
	if cfg.Autoscale {
		kv = append(kv, "autoscale", "true")
	}
	shared.Seed = cfg.Seeds[0]
	env, sink, err := shared.Open("experiments tournament", experiments.LockSpec(), kv...)
	if err != nil {
		return err
	}
	return sink.Close(arena(env, cfg, *jsonOut))
}

// parseGiven parses the list flag name into *dst when the command line
// gives it. A given list must list something: an empty value is an
// error naming the flag, never a fall back to the default.
func parseGiven[T comparable](fs *flag.FlagSet, name string, dst *[]T, parse func(string) (T, error)) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if f.Name != name {
			return
		}
		var list []T
		if list, err = experiments.ParseList(name, f.Value.String(), parse); err == nil && len(list) == 0 {
			err = fmt.Errorf("-%s: empty list", name)
		}
		if err == nil {
			*dst = list
		}
	})
	return err
}

// joinSeeds renders seeds the way -seeds takes them.
func joinSeeds(seeds []uint64) string {
	s := make([]string, len(seeds))
	for i, seed := range seeds {
		s[i] = strconv.FormatUint(seed, 10)
	}
	return strings.Join(s, ",")
}

// arena runs the grid and prints the leaderboard, as a table and — with
// -json — for machines.
func arena(env experiments.Env, cfg experiments.TournamentConfig, jsonOut string) error {
	res, err := env.Tournament(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Strategy arena ==")
	fmt.Println(experiments.RenderTournament(res))
	if jsonOut == "" {
		return nil
	}
	b, err := res.JSON()
	if err != nil {
		return err
	}
	if jsonOut == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(jsonOut, b, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote leaderboard to", jsonOut)
	return nil
}
