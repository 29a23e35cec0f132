package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/strategy"
)

func TestBuild(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"jupiter", "Jupiter"},
		{"Jupiter-Refine", "Jupiter+refine"},
		{"jupiter-adaptive", "Jupiter-adaptive"},
		{"baseline", "Baseline"},
		{"Baseline", "Baseline"}, // names are case-insensitive in specs
		{"extra(2, 0.2)", "Extra(2, 0.2)"},
		{"extra(0,0.2)", "Extra(0, 0.2)"},
		{"EXTRA( 0 , 0.1 )", "Extra(0, 0.1)"},
		{" feedback ( 0.05 ) ", "Feedback(0.05)"},
		{"portfolio", "Portfolio(0.6)"},
		{"portfolio(0.4)", "Portfolio(0.4)"},
		{"checkpoint(45)", "Checkpoint(45m)"},
	}
	for _, c := range cases {
		b, err := Build(c.spec)
		if err != nil {
			t.Errorf("Build(%q): %v", c.spec, err)
			continue
		}
		if got := b().Name(); got != c.name {
			t.Errorf("Build(%q) instance name %q, want %q", c.spec, got, c.name)
		}
	}
	if !slices.IsSorted(Names()) {
		t.Errorf("Families out of name order: %v", Names())
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "empty spec"},
		{"nosuch", "unknown strategy"},
		{"extra", "want 2 argument(s)"},
		{"extra(1)", "want 2 argument(s)"},
		{"extra(1, 0.2, 3)", "want 2 argument(s)"},
		{"extra(x, 0.2)", "not an integer"},
		{"extra(-1, 0.2)", "-1 < 0"},
		{"extra(1, -0.2)", "-0.2 < 0"},
		{"feedback(2)", "outside (0, 1)"},
		{"portfolio(0)", "0 <= 0"},
		{"checkpoint(-5)", "-5 < 0"},
		{"extra(1, 0.2", "missing ')'"},
		{"extra)1(", "malformed"},
		{"(0.2)", "missing name"},
		{"extra((1), 0.2)", "nested parentheses"},
	}
	for _, c := range cases {
		_, err := Build(c.spec)
		if err == nil {
			t.Errorf("Build(%q): want error containing %q, got nil", c.spec, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Build(%q) error %q does not contain %q", c.spec, err, c.want)
		}
	}
}

func TestSplitSpecList(t *testing.T) {
	got, err := SplitSpecList(" jupiter, extra(2, 0.2) , baseline ")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"jupiter", "extra(2, 0.2)", "baseline"}
	if len(got) != len(want) {
		t.Fatalf("SplitSpecList = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SplitSpecList[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := SplitSpecList("extra(1, 0.2"); err == nil {
		t.Error("unbalanced '(' accepted")
	}
	if _, err := SplitSpecList("extra)1,2("); err == nil {
		t.Error("unbalanced ')' accepted")
	}
	for _, list := range []string{"", " ", ",", "jupiter,,baseline", "jupiter,"} {
		if _, err := SplitSpecList(list); err == nil {
			t.Errorf("SplitSpecList(%q) accepted a blank element", list)
		}
	}
}

// TestBuildList builds a comma-separated roster the way the tournament
// command does: SplitSpecList, then BuildSpecs, whose errors number the
// entry.
func TestBuildList(t *testing.T) {
	build := func(list string) ([]strategy.Builder, error) {
		specs, err := SplitSpecList(list)
		if err != nil {
			return nil, err
		}
		return BuildSpecs(specs)
	}
	builders, err := build("baseline, extra(2, 0.2)")
	if err != nil {
		t.Fatal(err)
	}
	if len(builders) != 2 {
		t.Fatalf("built %d, want 2", len(builders))
	}
	if _, err := build("baseline, nosuch"); err == nil || !strings.Contains(err.Error(), "entry 2") {
		t.Errorf("want entry-numbered error, got %v", err)
	}
}
