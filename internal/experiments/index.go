package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// An Experiment is one section of the paper's evaluation as
// cmd/experiments prints it: the -run names that select it, the title
// of its section, and the function that replays and renders it.
type Experiment struct {
	names []string
	title string
	// sweep marks the sections that read a Figs. 6–9 sweep, the rows
	// -csv writes.
	sweep  bool
	render func(*memo) (string, error)
}

// index is the evaluation in the order "-run all" prints it. fig6 and
// fig7 are one sweep's cost and availability tables, and so are fig8
// and fig9: either name prints both.
var index = []Experiment{
	{names: []string{"table1"}, title: "Table 1", render: func(*memo) (string, error) { return renderTable1(), nil }},
	{names: []string{"fig1"}, title: "Figure 1", render: table(Env.Fig1, renderFig1)},
	{names: []string{"fig4"}, title: "Figure 4", render: table(Env.Fig4, renderFig4)},
	{names: []string{"fig5"}, title: "Figure 5", render: table(Env.Fig5, renderFig5)},
	{names: []string{"fig6", "fig7"}, title: "Figures 6 and 7", sweep: true, render: sweepTables("lock")},
	{names: []string{"fig8", "fig9"}, title: "Figures 8 and 9", sweep: true, render: sweepTables("storage")},
	{names: []string{"headline"}, title: "Headline", sweep: true, render: (*memo).headline},
	{names: []string{"example3"}, title: "Section 3 worked example", render: table(Env.Example3, renderExample3)},
	{names: []string{"ablation"}, title: "Ablation: failure estimator", render: table(Env.AblationEstimators,
		variantTable("Ablation: Jupiter failure estimator (lock and storage services, 1h/6h/12h intervals)", "estimator", 22, "out-of-bid"))},
	{names: []string{"adaptive"}, title: "Extension: adaptive bidding interval", render: table(Env.AblationAdaptiveInterval,
		variantTable("Extension: adaptive bidding interval (lock service)", "variant", 12, "decisions"))},
	{names: []string{"weighted"}, title: "Analysis: weighted voting", render: table(Env.WeightedVotingAnalysis, renderWeightedVoting)},
}

// RunNames lists every value -run takes, "all" first, in index order.
func RunNames() []string {
	names := []string{"all"}
	for _, x := range index {
		names = append(names, x.names...)
	}
	return names
}

// Select resolves a -run value against the index: "all" is every
// section, any other name the one section that lists it. An unknown
// name is an error listing the valid ones, and so is asking for the
// sweep rows (withCSV, for -csv) of a selection that replays no sweep.
func Select(run string, withCSV bool) ([]Experiment, error) {
	sel := index
	if run != "all" {
		i := slices.IndexFunc(index, func(x Experiment) bool { return slices.Contains(x.names, run) })
		if i < 0 {
			return nil, fmt.Errorf("unknown -run %q (want one of %s)", run, strings.Join(RunNames(), ", "))
		}
		sel = index[i : i+1]
	}
	if withCSV && !slices.ContainsFunc(sel, func(x Experiment) bool { return x.sweep }) {
		var sweeps []string
		for _, x := range index {
			if x.sweep {
				sweeps = append(sweeps, x.names...)
			}
		}
		return nil, fmt.Errorf("-csv writes sweep rows, and -run %s replays no sweep (want all, %s)", run, strings.Join(sweeps, ", "))
	}
	return sel, nil
}

// Print runs the selected experiments on e in index order and writes
// each section to w under its title. With csvPath set it then writes
// the sweep rows the sections replayed, lock before storage, as CSV
// ("-" is stdout).
func (e Env) Print(w io.Writer, sel []Experiment, csvPath string) error {
	m := &memo{env: e}
	for _, x := range sel {
		body, err := x.render(m)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "== %s ==\n%s\n", x.title, body); err != nil {
			return err
		}
	}
	if csvPath == "" {
		return nil
	}
	rows := append(append([]SweepRow{}, m.lock...), m.storage...)
	return writeOut(csvPath, "sweep CSV", func(w io.Writer) error { return writeSweepCSV(w, rows) })
}

// memo is one Print's state: the Env and the lock and storage sweeps
// it has replayed, so the figures, the headline and the CSV that read a
// sweep share one replay of it.
type memo struct {
	env           Env
	lock, storage []SweepRow
}

// rows returns a service's sweep, replaying it on first use.
func (m *memo) rows(service string) ([]SweepRow, error) {
	rows, spec := &m.lock, LockSpec()
	if service == "storage" {
		rows, spec = &m.storage, StorageSpec()
	}
	if *rows == nil {
		r, err := m.env.Sweep(spec, service)
		if err != nil {
			return nil, err
		}
		*rows = r
	}
	return *rows, nil
}

// headline renders the cost reductions of both services' sweeps.
func (m *memo) headline() (string, error) {
	var hs []Headline
	for _, svc := range []struct {
		name   string
		target float64
	}{
		{"lock", LockSpec().TargetAvailability()},
		{"storage", StorageSpec().TargetAvailability()},
	} {
		rows, err := m.rows(svc.name)
		if err != nil {
			return "", err
		}
		h, err := HeadlineFrom(rows, svc.name, svc.target)
		if err != nil {
			return "", err
		}
		hs = append(hs, h)
	}
	return renderHeadline(hs), nil
}

// sweepTables renders one service's Figs. 6–9 tables.
func sweepTables(service string) func(*memo) (string, error) {
	return func(m *memo) (string, error) {
		rows, err := m.rows(service)
		if err != nil {
			return "", err
		}
		return renderSweep(rows, service), nil
	}
}

// table makes the render function of a section that runs one Env
// experiment and formats what it returns.
func table[T any](drive func(Env) (T, error), render func(T) string) func(*memo) (string, error) {
	return func(m *memo) (string, error) {
		v, err := drive(m.env)
		if err != nil {
			return "", err
		}
		return render(v), nil
	}
}
