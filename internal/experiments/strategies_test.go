package experiments

import (
	"slices"
	"strconv"
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
		{"JUPITER-ADAPTIVE", "Jupiter-adaptive"},
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

// TestParseList pins the one rule every list flag follows: the empty
// string is the empty list; elements split at top-level commas only, so
// a spec's argument list stays whole, and are trimmed; a blank element,
// one the element parser rejects, and a repeated parsed value are
// errors naming the flag and the 1-based entry.
func TestParseList(t *testing.T) {
	spec := func(s string) (string, error) { _, err := Build(s); return s, err }
	got, err := ParseList("strategies", " jupiter, extra(2, 0.2) , baseline ", spec)
	if want := []string{"jupiter", "extra(2, 0.2)", "baseline"}; err != nil || !slices.Equal(got, want) {
		t.Fatalf("ParseList = %q, %v; want %q", got, err, want)
	}
	if got, err := ParseList("strategies", "", spec); err != nil || len(got) != 0 {
		t.Fatalf(`ParseList("") = %q, %v; want the empty list`, got, err)
	}
	seconds := func(s string) (int, error) { return strconv.Atoi(s) }
	for _, c := range []struct{ list, want string }{
		{" ", `-x entry 1 (""): empty`},
		{",", `-x entry 1 (""): empty`},
		{"1,,3", `-x entry 2 (""): empty`},
		{"1,", `-x entry 2 (""): empty`},
		{"1, 3,03", `-x entry 3 ("03"): repeats entry 2`},
		{"1,x", `-x entry 2 ("x"): strconv.Atoi: parsing "x": invalid syntax`},
	} {
		if _, err := ParseList("x", c.list, seconds); err == nil || err.Error() != c.want {
			t.Errorf("ParseList(%q): %v, want %q", c.list, err, c.want)
		}
	}
	for _, c := range []struct{ list, want string }{
		{"extra(1, 0.2", `-strategies entry 1 ("extra(1, 0.2"): strategy: malformed spec`},
		{"extra)1,2(", `-strategies entry 1 ("extra)1,2("): strategy: malformed spec`},
		{"baseline,extra(2,0.2),extra(2,0.2)", `-strategies entry 3 ("extra(2,0.2)"): repeats entry 2`},
	} {
		if _, err := ParseList("strategies", c.list, spec); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("ParseList(%q): %v, want it to start %q", c.list, err, c.want)
		}
	}
}

// TestBuildList builds a comma-separated roster: ParseList, then
// BuildSpecs, whose errors number the entry.
func TestBuildList(t *testing.T) {
	build := func(list string) ([]strategy.Builder, error) {
		specs, err := ParseList("strategies", list, func(s string) (string, error) { return s, nil })
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
