package strategy

import (
	"strings"
	"testing"
)

// testRegistry builds a private registry with the package's built-in
// families (the Default entries registered by this package's inits are
// re-registered here so tests never depend on import order).
func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	for _, name := range []string{"baseline", "extra", "feedback", "portfolio", "checkpoint"} {
		reg, ok := Default.Lookup(name)
		if !ok {
			t.Fatalf("family %q missing from Default", name)
		}
		if err := r.Register(reg); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRegistryBuildSpecs(t *testing.T) {
	r := testRegistry(t)
	cases := []struct {
		spec string
		name string
	}{
		{"baseline", "Baseline"},
		{"Baseline", "Baseline"}, // names are case-insensitive in specs
		{"extra(2, 0.2)", "Extra(2, 0.2)"},
		{"extra(0,0.2)", "Extra(0, 0.2)"},
		{" feedback ( 0.05 ) ", "Feedback(0.05)"},
		{"portfolio", "Portfolio(0.6)"},
		{"portfolio(0.4)", "Portfolio(0.4)"},
		{"checkpoint(45)", "Checkpoint(45m)"},
	}
	for _, c := range cases {
		b, err := r.Build(c.spec)
		if err != nil {
			t.Errorf("Build(%q): %v", c.spec, err)
			continue
		}
		if got := b().Name(); got != c.name {
			t.Errorf("Build(%q) instance name %q, want %q", c.spec, got, c.name)
		}
	}
}

func TestRegistryBuildErrors(t *testing.T) {
	r := testRegistry(t)
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
		_, err := r.Build(c.spec)
		if err == nil {
			t.Errorf("Build(%q): want error containing %q, got nil", c.spec, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Build(%q) error %q does not contain %q", c.spec, err, c.want)
		}
	}
}

func TestRegistryRegisterValidation(t *testing.T) {
	r := NewRegistry()
	build := func([]string) (Builder, error) { return func() Strategy { return OnDemand{} }, nil }
	if err := r.Register(Registration{Name: "", Build: build}); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Register(Registration{Name: "Upper", Build: build}); err == nil {
		t.Error("upper-case name accepted")
	}
	if err := r.Register(Registration{Name: "has space", Build: build}); err == nil {
		t.Error("name with space accepted")
	}
	if err := r.Register(Registration{Name: "par(en", Build: build}); err == nil {
		t.Error("name with paren accepted")
	}
	if err := r.Register(Registration{Name: "ok"}); err == nil {
		t.Error("nil Build accepted")
	}
	if err := r.Register(Registration{Name: "ok", Build: build}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Registration{Name: "ok", Build: build}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if got := r.Names(); len(got) != 1 || got[0] != "ok" {
		t.Errorf("Names() = %v, want [ok]", got)
	}
}

func TestSplitSpecList(t *testing.T) {
	got, err := SplitSpecList(" jupiter, extra(2, 0.2) ,, baseline ")
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
}

func TestParseStrategyList(t *testing.T) {
	r := testRegistry(t)
	input := `# arena roster
baseline
extra(2, 0.2)   # the paper's heuristic

feedback(0.05)
`
	builders, specs, err := r.ParseStrategyList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(builders) != 3 || len(specs) != 3 {
		t.Fatalf("parsed %d builders, %d specs; want 3", len(builders), len(specs))
	}
	wantNames := []string{"Baseline", "Extra(2, 0.2)", "Feedback(0.05)"}
	for i, b := range builders {
		if got := b().Name(); got != wantNames[i] {
			t.Errorf("entry %d: name %q, want %q", i, got, wantNames[i])
		}
	}

	// Line-numbered errors.
	_, _, err = r.ParseStrategyList(strings.NewReader("baseline\nnosuch\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("unknown name: want line-numbered error, got %v", err)
	}
	// Duplicate detection is canonical: spacing differences still collide.
	_, _, err = r.ParseStrategyList(strings.NewReader("extra(2, 0.2)\nextra(2,0.2)\n"))
	if err == nil || !strings.Contains(err.Error(), "duplicate") || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("duplicate spec: want line-numbered duplicate error, got %v", err)
	}
}

// TestBuildList builds a comma-separated roster the way the tournament
// command does: SplitSpecList, then BuildSpecs, whose errors number the
// entry.
func TestBuildList(t *testing.T) {
	r := testRegistry(t)
	build := func(list string) ([]Builder, error) {
		specs, err := SplitSpecList(list)
		if err != nil {
			return nil, err
		}
		return r.BuildSpecs(specs)
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
