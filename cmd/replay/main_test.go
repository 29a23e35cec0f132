package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestParseIntervals: every -interval entry must be a positive whole
// number of hours; anything else is an error naming the entry.
func TestParseIntervals(t *testing.T) {
	good := map[string][]int64{
		"1":          {1},
		"1,3,6,9,12": {1, 3, 6, 9, 12},
		" 9 , 12 ":   {9, 12},
	}
	for in, want := range good {
		got, err := experiments.ParseList("interval", in, parseHours)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("-interval %q = %v, %v; want %v", in, got, err, want)
		}
	}

	bad := map[string]string{
		"abc":    `entry 1 ("abc"): not a whole number`,
		"1,abc":  `entry 2 ("abc"): not a whole number`,
		"1.5":    "not a whole number",
		"0":      "not positive",
		"-2":     "not positive",
		"3,0,6":  `entry 2 ("0"): not positive`,
		"6,-1":   "not positive",
		"9999e9": "not a whole number",
	}
	for in, wantSub := range bad {
		got, err := experiments.ParseList("interval", in, parseHours)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("-interval %q = %v, %v; want an error mentioning %q", in, got, err, wantSub)
		}
	}
}

// TestListFlags: replay's list flags follow the one list rule. A blank
// entry or a repeated value is an error naming the flag and the 1-based
// entry, before anything replays; an empty -interval is an error too;
// padding around an entry is trimmed.
func TestListFlags(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"types", "m1.medium,,c3.large", `-types entry 2 (""): empty`},
		{"types", "m1.medium,", `-types entry 2 (""): empty`},
		{"types", " , ", `-types entry 1 (""): empty`},
		{"types", "c3.large,m1.medium,c3.large", `-types entry 3 ("c3.large"): repeats entry 1`},
		{"interval", "1,,3", `-interval entry 2 (""): empty`},
		{"interval", "3,", `-interval entry 2 (""): empty`},
		{"interval", "3,3", `-interval entry 2 ("3"): repeats entry 1`},
		{"interval", "1,3,03", `-interval entry 3 ("03"): repeats entry 2`},
		{"interval", "", "-interval: empty list"},
	} {
		o := quick("extra(2, 0.2)", "3")
		if c.flag == "types" {
			o.Types = c.value
		} else {
			o.intervals = c.value
		}
		if out, err := runCaptured(t, o); err == nil || !strings.HasPrefix(err.Error(), c.want) || out != "" {
			t.Errorf("-%s %q: %v, printed %q; want an error starting %q", c.flag, c.value, err, out, c.want)
		}
	}
	run := func(types, intervals string) string {
		o := quick("extra(2, 0.2)", intervals)
		o.Types = types
		out, err := runCaptured(t, o)
		if err != nil {
			t.Fatalf("-types %q -interval %q: %v", types, intervals, err)
		}
		return out
	}
	if got, want := run(" m1.medium , c3.large", " 3 , 6 "), run("m1.medium,c3.large", "3,6"); got != want {
		t.Errorf("padded lists print\n%s\nwant\n%s", got, want)
	}
}

// TestTypesRejectsTheBaseType: a -types entry equal to the service's
// base type (m1.small, the lock service's) adds no pool, so it is an
// error naming the flag and the entry, before anything replays — never
// a replay of the market without it.
func TestTypesRejectsTheBaseType(t *testing.T) {
	for types, want := range map[string]string{
		"m1.small":           `-types entry 1 ("m1.small"): is the base type`,
		"m1.medium,m1.small": `-types entry 2 ("m1.small"): is the base type`,
	} {
		o := quick("extra(2, 0.2)", "3")
		o.Types = types
		if out, err := runCaptured(t, o); err == nil || !strings.HasPrefix(err.Error(), want) || out != "" {
			t.Errorf("-types %q: %v, printed %q; want an error starting %q", types, err, out, want)
		}
	}
}

// TestChaosErrorNamesTheFileOnce: a scenario file that fails validation
// reads as the command, the file, then the chaos package's own message
// — each prefix once.
func TestChaosErrorNamesTheFileOnce(t *testing.T) {
	file := filepath.Join(t.TempDir(), "bad.json")
	scenario := `{"name":"bad","injectors":[{"kind":"reclaim-storm","from":0,"count":0}]}`
	if err := os.WriteFile(file, []byte(scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	o := quick("baseline", "3")
	o.Chaos = file
	_, err := runCaptured(t, o)
	want := "replay: " + file + ": chaos: injector 0 (reclaim-storm): count 0 < 1"
	if err == nil || "replay: "+err.Error() != want {
		t.Errorf("-chaos bad.json prints %v, want %q", err, want)
	}
}
