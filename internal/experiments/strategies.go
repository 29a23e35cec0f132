package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/strategy"
)

// Family is one strategy family a spec can name: "jupiter",
// "extra(2, 0.2)", "feedback(0.05)", ...
type Family struct {
	// Name is the canonical spec name, lower-case.
	Name string
	// Usage documents the spec syntax, e.g. "extra(m, p)".
	Usage string
	// Description is a one-line summary for listings.
	Description string
	// Parse turns a spec's argument list — nil for a bare name, the
	// trimmed parenthesized parts otherwise — into a fresh-instance
	// constructor.
	Parse func(args []string) (strategy.Builder, error)
}

// Families is every strategy family, sorted by name: the paper's
// Jupiter variants (§3–4), its §5.2 comparisons, and the rivals from
// the literature. cmd/replay -strategy, the tournament's -strategies
// and the §5.5 sweep all resolve their specs here.
var Families = []Family{
	{"baseline", "baseline", "paper §5.2 baseline: BaseNodes' worth of on-demand capacity, never bids",
		bare("baseline", func() strategy.Strategy { return strategy.OnDemand{} })},
	{"checkpoint", "checkpoint | checkpoint(restartMinutes)", "low-bid checkpoint/restart bidder with restart-cost accounting (Voorsluys & Buyya)",
		func(args []string) (strategy.Builder, error) {
			if err := wantArgs("checkpoint(restartMinutes)", args, 0, 1); err != nil {
				return nil, err
			}
			restart := 30
			if len(args) == 1 {
				r, err := argInt("restartMinutes", args[0])
				if err != nil {
					return nil, err
				}
				if r < 0 {
					return nil, fmt.Errorf("argument restartMinutes: %d < 0", r)
				}
				restart = r
			}
			return func() strategy.Strategy { return strategy.NewCheckpointRestart(int64(restart)) }, nil
		}},
	{"extra", "extra(m, p)", "paper §5.2 heuristic: n+m cheapest pools at spot price times (1+p)",
		func(args []string) (strategy.Builder, error) {
			if err := wantArgs("extra(m, p)", args, 2, 2); err != nil {
				return nil, err
			}
			m, err := argInt("m", args[0])
			if err != nil {
				return nil, err
			}
			if m < 0 {
				return nil, fmt.Errorf("argument m: %d < 0", m)
			}
			p, err := argFloat("p", args[1])
			if err != nil {
				return nil, err
			}
			if p < 0 {
				return nil, fmt.Errorf("argument p: %g < 0", p)
			}
			return func() strategy.Strategy { return strategy.Extra{ExtraNodes: m, Portion: p} }, nil
		}},
	{"feedback", "feedback | feedback(epsilon)", "PI-controller bidding toward a target out-of-bid fraction (arXiv 1708.01391)",
		func(args []string) (strategy.Builder, error) {
			if err := wantArgs("feedback(epsilon)", args, 0, 1); err != nil {
				return nil, err
			}
			target := 0.03
			if len(args) == 1 {
				t, err := argFloat("epsilon", args[0])
				if err != nil {
					return nil, err
				}
				if t <= 0 || t >= 1 {
					return nil, fmt.Errorf("argument epsilon: %g outside (0, 1)", t)
				}
				target = t
			}
			return func() strategy.Strategy { return strategy.NewFeedbackControl(target) }, nil
		}},
	{"jupiter", "jupiter", "the paper's bidding framework: availability-model DP over bid levels (§3–4)",
		bare("jupiter", func() strategy.Strategy { return core.New() })},
	{"jupiter-adaptive", "jupiter-adaptive", "jupiter wrapped with the volatility-driven interval chooser",
		bare("jupiter-adaptive", func() strategy.Strategy { return core.NewAdaptive() })},
	{"portfolio", "portfolio | portfolio(beta)", "optimized on-demand/spot portfolio under an expected-cost cap (arXiv 1811.12901)",
		func(args []string) (strategy.Builder, error) {
			if err := wantArgs("portfolio(beta)", args, 0, 1); err != nil {
				return nil, err
			}
			beta := 0.6
			if len(args) == 1 {
				b, err := argFloat("beta", args[0])
				if err != nil {
					return nil, err
				}
				if b <= 0 {
					return nil, fmt.Errorf("argument beta: %g <= 0", b)
				}
				beta = b
			}
			return func() strategy.Strategy { return strategy.NewPortfolioContract(beta) }, nil
		}},
}

// bare parses a family that takes no arguments.
func bare(name string, build strategy.Builder) func([]string) (strategy.Builder, error) {
	return func(args []string) (strategy.Builder, error) {
		if err := wantArgs(name, args, 0, 0); err != nil {
			return nil, err
		}
		return build, nil
	}
}

// Names lists the families, sorted.
func Names() []string {
	names := make([]string, len(Families))
	for i, f := range Families {
		names[i] = f.Name
	}
	return names
}

// Build resolves one spec — "name" or "name(arg, arg, ...)", the name
// case-insensitive — to a fresh-instance constructor.
func Build(spec string) (strategy.Builder, error) {
	name, args, err := splitSpec(spec)
	if err != nil {
		return nil, err
	}
	for _, f := range Families {
		if f.Name != name {
			continue
		}
		b, err := f.Parse(args)
		if err != nil {
			return nil, fmt.Errorf("strategy: %s: %w", name, err)
		}
		return b, nil
	}
	return nil, fmt.Errorf("strategy: unknown strategy %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// BuildSpecs resolves a list of specs, reporting errors by entry index.
func BuildSpecs(specs []string) ([]strategy.Builder, error) {
	out := make([]strategy.Builder, 0, len(specs))
	for i, spec := range specs {
		b, err := Build(spec)
		if err != nil {
			return nil, fmt.Errorf("list entry %d (%q): %w", i+1, spec, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// splitSpec parses "name" or "name(a, b)" into the lower-cased name and
// trimmed argument list (nil for a bare name).
func splitSpec(spec string) (string, []string, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return "", nil, fmt.Errorf("strategy: empty spec")
	}
	open := strings.IndexByte(spec, '(')
	if open < 0 {
		if strings.ContainsAny(spec, "),") {
			return "", nil, fmt.Errorf("strategy: malformed spec %q", spec)
		}
		return strings.ToLower(spec), nil, nil
	}
	if !strings.HasSuffix(spec, ")") {
		return "", nil, fmt.Errorf("strategy: malformed spec %q (missing ')')", spec)
	}
	name := strings.ToLower(strings.TrimSpace(spec[:open]))
	if name == "" {
		return "", nil, fmt.Errorf("strategy: malformed spec %q (missing name)", spec)
	}
	inner := spec[open+1 : len(spec)-1]
	if strings.ContainsAny(inner, "()") {
		return "", nil, fmt.Errorf("strategy: malformed spec %q (nested parentheses)", spec)
	}
	var args []string
	if strings.TrimSpace(inner) != "" {
		for _, a := range strings.Split(inner, ",") {
			args = append(args, strings.TrimSpace(a))
		}
	}
	return name, args, nil
}

// wantArgs rejects argument lists of the wrong arity with the family's
// usage in the message.
func wantArgs(usage string, args []string, min, max int) error {
	if len(args) < min || len(args) > max {
		if min == max {
			return fmt.Errorf("want %d argument(s) as %s, got %d", min, usage, len(args))
		}
		return fmt.Errorf("want %d to %d argument(s) as %s, got %d", min, max, usage, len(args))
	}
	return nil
}

// argInt parses one integer argument.
func argInt(name, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("argument %s: %q is not an integer", name, v)
	}
	return n, nil
}

// argFloat parses one float argument.
func argFloat(name, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("argument %s: %q is not a number", name, v)
	}
	return f, nil
}
