package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/strategy"
)

// runTournament is the "experiments tournament" subcommand: the
// strategy arena. Every roster strategy replays under every chaos
// scenario and seed; the leaderboard ranks them by availability bounds
// met, then mean cost.
func runTournament(args []string) error {
	fs := flag.NewFlagSet("tournament", flag.ExitOnError)
	strategies := fs.String("strategies", "", "comma-separated strategy specs (default: the shipped arena roster); see -list")
	roster := fs.String("roster", "", "read the roster from a strategy-list file (one spec per line, '#' comments); mutually exclusive with -strategies")
	scenarios := fs.String("scenarios", "", "comma-separated chaos scenarios, builtin names or JSON files (default: every builtin)")
	seedsSpec := fs.String("seeds", "", "comma-separated replay seeds (default 2014,2015,2016)")
	interval := fs.Int64("interval", 3, "bidding interval in hours")
	epsilon := fs.Float64("epsilon", experiments.DefaultTournamentEpsilon, "availability slack below the clean baseline")
	autoscale := fs.Bool("autoscale", false, "arm every cell (and the baseline) with a per-seed synthetic diurnal+flash-crowd workload so fleets resize during the run")
	jsonOut := fs.String("json", "", "write the leaderboard as JSON to this file ('-' = stdout)")
	var shared experiments.Flags
	shared.Register(fs, experiments.QuickEnv(), "weeks", "train", "j", "manifest", "spans-sample")
	list := fs.Bool("list", false, "list registered strategies and builtin scenarios, then exit")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: experiments tournament [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println("strategies:")
		for _, name := range strategy.Default.Names() {
			reg, _ := strategy.Default.Lookup(name)
			fmt.Printf("  %-20s %s\n", reg.Usage, reg.Description)
		}
		fmt.Println("scenarios:")
		for _, name := range chaos.BuiltinNames() {
			sc, _ := chaos.Builtin(name)
			fmt.Printf("  %-20s %s\n", name, sc.Description)
		}
		return nil
	}

	cfg := experiments.TournamentConfig{
		IntervalHours: *interval,
		Epsilon:       *epsilon,
		Autoscale:     *autoscale,
	}
	if *strategies != "" && *roster != "" {
		return fmt.Errorf("tournament: -strategies and -roster are mutually exclusive")
	}
	if *strategies != "" {
		specs, err := strategy.SplitSpecList(*strategies)
		if err != nil {
			return err
		}
		cfg.Specs = specs
	}
	if *roster != "" {
		specs, err := loadRoster(*roster)
		if err != nil {
			return err
		}
		cfg.Specs = specs
	}
	if *scenarios != "" {
		for _, s := range strings.Split(*scenarios, ",") {
			if s = strings.TrimSpace(s); s != "" {
				cfg.Scenarios = append(cfg.Scenarios, s)
			}
		}
	}
	if *seedsSpec != "" {
		for _, s := range strings.Split(*seedsSpec, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			seed, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return fmt.Errorf("tournament: bad seed %q: %w", s, err)
			}
			cfg.Seeds = append(cfg.Seeds, seed)
		}
	}
	// The run's record names the grid as resolved: the manifest's seed is
	// the first market's, and its config carries every seed and scenario.
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = experiments.DefaultTournamentSeeds
	}
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = chaos.BuiltinNames()
	}
	seeds := make([]string, len(cfg.Seeds))
	for i, s := range cfg.Seeds {
		seeds[i] = strconv.FormatUint(s, 10)
	}
	kv := []string{
		"seeds", strings.Join(seeds, ","),
		"scenarios", strings.Join(cfg.Scenarios, ","),
		"interval", strconv.FormatInt(*interval, 10),
	}
	if *autoscale {
		kv = append(kv, "autoscale", "true")
	}
	shared.Seed = cfg.Seeds[0]
	env, sink, err := shared.Open("experiments tournament", experiments.LockSpec(), kv...)
	if err != nil {
		return err
	}
	return sink.Close(arena(env, cfg, *jsonOut))
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

// loadRoster reads a strategy-list file into registry specs; parse
// errors carry the offending line number.
func loadRoster(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, specs, err := strategy.Default.ParseStrategyList(f)
	if err != nil {
		return nil, fmt.Errorf("tournament: roster %s: %w", path, err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("tournament: roster %s: no strategies", path)
	}
	return specs, nil
}
