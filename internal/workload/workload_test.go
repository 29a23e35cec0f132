package workload

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/trace"
)

func mustTrace(t *testing.T, start, end int64, points []Point) *Trace {
	t.Helper()
	tr, err := New(start, end, points)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidates(t *testing.T) {
	cases := []struct {
		name   string
		start  int64
		end    int64
		points []Point
	}{
		{"empty span", 10, 10, []Point{{0, 1}}},
		{"no points", 0, 10, nil},
		{"nan", 0, 10, []Point{{0, math.NaN()}}},
		{"negative", 0, 10, []Point{{0, -1}}},
		{"inf", 0, 10, []Point{{0, math.Inf(1)}}},
		{"duplicate minute", 0, 10, []Point{{0, 1}, {0, 2}}},
		{"out of order", 0, 10, []Point{{5, 1}, {3, 2}}},
	}
	for _, c := range cases {
		if _, err := New(c.start, c.end, c.points); err == nil {
			t.Errorf("%s: New accepted invalid input", c.name)
		}
	}
}

func TestRPSAt(t *testing.T) {
	tr := mustTrace(t, 0, 100, []Point{{10, 5}, {50, 20}})
	for _, c := range []struct {
		minute int64
		want   float64
	}{{0, 5}, {10, 5}, {49, 5}, {50, 20}, {99, 20}, {200, 20}} {
		if got := tr.RPSAt(c.minute); got != c.want {
			t.Errorf("RPSAt(%d) = %v, want %v", c.minute, got, c.want)
		}
	}
}

func TestConstant(t *testing.T) {
	if !mustTrace(t, 0, 10, []Point{{0, 3}, {5, 3}}).Constant() {
		t.Error("flat trace not Constant")
	}
	if mustTrace(t, 0, 10, []Point{{0, 3}, {5, 4}}).Constant() {
		t.Error("moving trace reported Constant")
	}
}

func TestScaleWindow(t *testing.T) {
	tr := mustTrace(t, 0, 200, []Point{{0, 10}, {100, 30}})
	s := tr.Scale(50, 150, 2)
	for _, c := range []struct {
		minute int64
		want   float64
	}{{0, 10}, {49, 10}, {50, 20}, {99, 20}, {100, 60}, {149, 60}, {150, 30}, {199, 30}} {
		if got := s.RPSAt(c.minute); got != c.want {
			t.Errorf("scaled RPSAt(%d) = %v, want %v", c.minute, got, c.want)
		}
	}
	// Identity cases return the receiver untouched.
	if tr.Scale(300, 400, 2) != tr || tr.Scale(50, 150, 1) != tr {
		t.Error("no-op Scale did not return the receiver")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	gen, err := Generate(GenConfig{Seed: 7, Start: 0, End: 3 * 24 * 60})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gen.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadCSVMode(bytes.NewReader(buf.Bytes()), gen.Start, gen.End, trace.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gen, got) {
		t.Error("CSV round trip changed the trace")
	}
}

func TestReadCSVLenientQuarantines(t *testing.T) {
	in := "minute,rps\n" +
		"0,100\n" +
		"5\n" + // truncated
		"x,100\n" + // bad minute
		"10,NaN\n" + // nan rps
		"15,-3\n" + // negative rps
		"20,abc\n" + // unparseable rps
		"20,50\n" + // kept: the quarantined row above never became "last minute"
		"8,50\n" + // out of order
		"30,200\n"
	tr, rep, err := ReadCSVMode(strings.NewReader(in), 0, 100, trace.Lenient)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || len(tr.Points) != 3 {
		t.Fatalf("lenient read kept %+v, want 3 points", tr)
	}
	wantReasons := []string{
		trace.ReasonTruncatedRow, trace.ReasonBadMinute,
		ReasonNaNRPS, ReasonNegativeRPS, ReasonBadRPS, trace.ReasonOutOfOrder,
	}
	for _, r := range wantReasons {
		if rep.Reasons[r] == 0 {
			t.Errorf("reason %s not reported: %+v", r, rep.Reasons)
		}
	}
	if _, _, err := ReadCSVMode(strings.NewReader(in), 0, 100, trace.Strict); err == nil {
		t.Error("strict read accepted malformed input")
	}
	// Strict names the physical line: the bad rate below sits on line 5,
	// behind two blank lines (the third record, which is what used to be
	// reported).
	_, _, err = ReadCSVMode(strings.NewReader("minute,rps\n0,10\n\n\n5,abc\n"), 0, 100, trace.Strict)
	if err == nil || !strings.Contains(err.Error(), "workload: line 5: rps:") {
		t.Errorf("strict error %v, want it to name line 5", err)
	}
}

// TestReadCSVReadErrorIsNotARow is the workload side of the trace
// reader's test of the same name: a reader failing mid-stream is
// returned in both modes, not quarantined and retried forever.
func TestReadCSVReadErrorIsNotARow(t *testing.T) {
	ioErr := errors.New("disk on fire")
	for _, mode := range []trace.ReadMode{trace.Strict, trace.Lenient} {
		r := io.MultiReader(strings.NewReader("minute,rps\n0,10\n"), iotest.ErrReader(ioErr))
		done := make(chan error, 1) // buffered: the reader may finish after the deadline gave up on it
		go func() {
			tr, rep, err := ReadCSVMode(r, 0, 100, mode)
			if tr != nil || rep != nil {
				err = fmt.Errorf("a failed read returned trace %v, report %+v (err %v)", tr, rep, err)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ioErr) || !strings.Contains(err.Error(), "workload: reading CSV") {
				t.Fatalf("mode %d: error %v, want the reader's wrapped as a CSV read error", mode, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("mode %d: still reading a failing reader after 2 s", mode)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenConfig{Seed: 11, Start: 0, End: 7 * 24 * 60})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenConfig{Seed: 11, Start: 0, End: 7 * 24 * 60})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed generated different traces")
	}
	c, err := Generate(GenConfig{Seed: 12, Start: 0, End: 7 * 24 * 60})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds generated identical traces")
	}
}

func TestGenerateShape(t *testing.T) {
	tr, err := Generate(GenConfig{Seed: 3, Start: 0, End: 7 * 24 * 60})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Constant() {
		t.Error("generated workload is flat")
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, p := range tr.Points {
		if p.RPS < 0 {
			t.Fatalf("negative rps %v at %d", p.RPS, p.Minute)
		}
		min, max = math.Min(min, p.RPS), math.Max(max, p.RPS)
	}
	// Diurnal swing alone gives max/min >= (1+A)/(1-A) ~ 2.6.
	if max/min < 2 {
		t.Errorf("generated swing %v -> %v too flat for a diurnal cycle", min, max)
	}
}

// Constant reports whether the trace holds a single rate over its
// whole span — the degenerate workload under which autoscaling must
// reduce to the paper's fixed-n deployment.
func (t *Trace) Constant() bool {
	for _, p := range t.Points[1:] {
		if p.RPS != t.Points[0].RPS {
			return false
		}
	}
	return true
}
