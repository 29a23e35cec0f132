package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEmptyTraceRejected: -weeks below 1 is a usage error naming the
// flag, in either format, and no output file is created.
func TestEmptyTraceRejected(t *testing.T) {
	for _, format := range []string{"csv", "colbin"} {
		out := filepath.Join(t.TempDir(), "trace."+format)
		err := run([]string{"-weeks", "0", "-format", format, "-o", out})
		if err == nil || !strings.HasPrefix(err.Error(), "-weeks 0:") {
			t.Errorf("%s: -weeks 0: %v", format, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s: -weeks 0 left a file behind: %v", format, err)
		}
	}
}

// generate runs tracegen with args and returns the file it wrote.
func generate(t *testing.T, name string, args ...string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), name)
	if err := run(append(args, "-o", out)); err != nil {
		t.Fatalf("tracegen %v: %v", args, err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestListFlags: -types and -zones follow the one list rule. A blank
// entry or a repeated value is an error naming the flag and the 1-based
// entry; padding around an entry is trimmed.
func TestListFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-types", "m1.medium,,c3.large"}, `-types entry 2 (""): empty`},
		{[]string{"-types", "m1.medium,"}, `-types entry 2 (""): empty`},
		{[]string{"-types", "m1.medium,m1.medium"}, `-types entry 2 ("m1.medium"): repeats entry 1`},
		{[]string{"-zones", "us-east-1a,,us-west-2b"}, `-zones entry 2 (""): empty`},
		{[]string{"-zones", "us-east-1a,"}, `-zones entry 2 (""): empty`},
		{[]string{"-zones", "us-east-1a,us-east-1a"}, `-zones entry 2 ("us-east-1a"): repeats entry 1`},
		{[]string{"-zones", "us-east-1z"}, `-zones entry 1 ("us-east-1z"): market: unknown availability zone "us-east-1z"`},
	} {
		out := filepath.Join(t.TempDir(), "trace.csv")
		if err := run(append(c.args, "-weeks", "1", "-o", out)); err == nil || err.Error() != c.want {
			t.Errorf("tracegen %v: %v, want %q", c.args, err, c.want)
		}
	}
	padded := generate(t, "padded.csv", "-weeks", "1", "-types", " m1.medium ", "-zones", " us-east-1a , us-west-2b")
	plain := generate(t, "plain.csv", "-weeks", "1", "-types", "m1.medium", "-zones", "us-east-1a,us-west-2b")
	if !bytes.Equal(padded, plain) {
		t.Error("padded -types and -zones write another trace than unpadded ones")
	}
}

// TestTypesRejectsTheBaseType: a -types entry equal to -type adds no
// pool, so generating or reading a market with it is an error naming
// the flag and the entry; the same type beside another base is an
// extra like any other.
func TestTypesRejectsTheBaseType(t *testing.T) {
	csvFile := filepath.Join(t.TempDir(), "base.csv")
	if err := run([]string{"-weeks", "1", "-zones", "us-east-1a", "-o", csvFile}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		base string
	}{
		{[]string{"-types", "m1.medium,m1.small"}, "m1.small"},
		{[]string{"-type", "m3.large", "-types", "m1.medium,m3.large"}, "m3.large"},
		{[]string{"-trace", csvFile, "-types", "m1.medium,m1.small"}, "m1.small"},
	} {
		out := filepath.Join(t.TempDir(), "trace.csv")
		want := fmt.Sprintf("-types entry 2 (%q): is the base type; -types lists the extra ones", c.base)
		if err := run(append(c.args, "-weeks", "1", "-o", out)); err == nil || err.Error() != want {
			t.Errorf("tracegen %v: %v, want %q", c.args, err, want)
		}
	}
	if got := generate(t, "extra.csv", "-type", "m3.large", "-types", "m1.small", "-weeks", "1", "-zones", "us-east-1a"); !bytes.Contains(got, []byte("m1.small")) {
		t.Error("-type m3.large -types m1.small wrote no m1.small pool")
	}
}

// TestTraceRoundTrip: -trace rewrites a market between the formats;
// colbin -> CSV -> colbin gives back the same bytes.
func TestTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	colbinFile := filepath.Join(dir, "typed.colbin")
	if err := run([]string{"-types", "m1.medium", "-weeks", "2", "-zones", "us-east-1a,us-west-2b", "-format", "colbin", "-o", colbinFile}); err != nil {
		t.Fatal(err)
	}
	csvFile := filepath.Join(dir, "typed.csv")
	if err := run([]string{"-trace", colbinFile, "-o", csvFile}); err != nil {
		t.Fatal(err)
	}
	again := generate(t, "again.colbin", "-trace", csvFile, "-types", "m1.medium", "-weeks", "2", "-format", "colbin")
	want, err := os.ReadFile(colbinFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Error("colbin -> csv -> colbin changed the bytes")
	}
}

// TestTraceReadModes: a malformed -trace row fails a strict read with
// its line and is quarantined by -lenient-traces; the generator's own
// flags do not combine with -trace.
func TestTraceReadModes(t *testing.T) {
	csv := string(generate(t, "zones.csv", "-weeks", "1", "-zones", "us-east-1a"))
	lines := strings.SplitAfter(csv, "\n")
	lines = append(lines[:2], append([]string{"not,a,valid,row\n"}, lines[2:]...)...)
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.csv")
	if err := run([]string{"-trace", bad, "-weeks", "1", "-o", out}); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("strict read of a malformed row: %v", err)
	}
	if got := generate(t, "clean.csv", "-trace", bad, "-weeks", "1", "-lenient-traces"); string(got) != csv {
		t.Error("a lenient read did not drop exactly the malformed row")
	}
	for _, args := range [][]string{
		{"-trace", bad, "-seed", "7"},
		{"-trace", bad, "-zones", "us-east-1a"},
		{"convert", "-in", bad},
		{"-format", "json"},
		{"-type", "z9.huge"},
		{"-trace", filepath.Join(t.TempDir(), "missing.csv")},
	} {
		if err := run(append(args, "-weeks", "1", "-o", out)); err == nil {
			t.Errorf("tracegen %v: no error", args)
		}
	}
}

// TestWorkload: the workload subcommand writes a minute,rps CSV.
func TestWorkload(t *testing.T) {
	got := generate(t, "wl.csv", "workload", "-weeks", "1", "-seed", "9")
	if !strings.HasPrefix(string(got), "minute,rps\n") || bytes.Count(got, []byte("\n")) < 2 {
		t.Errorf("workload CSV starts %q", got[:min(len(got), 40)])
	}
}
