package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/market"
)

func genSmallSet(t *testing.T) *Set {
	t.Helper()
	s, err := Generate(GenConfig{
		Seed: 4, Type: market.M1Small,
		Zones: []string{"us-east-1a", "eu-west-1b"},
		Start: 0, End: 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func setsEqual(t *testing.T, a, b *Set) {
	t.Helper()
	if a.Type != b.Type || a.Start != b.Start || a.End != b.End {
		t.Fatalf("set metadata differs: %v/%d/%d vs %v/%d/%d", a.Type, a.Start, a.End, b.Type, b.Start, b.End)
	}
	if len(a.ByZone) != len(b.ByZone) {
		t.Fatalf("zone counts differ: %d vs %d", len(a.ByZone), len(b.ByZone))
	}
	for z, ta := range a.ByZone {
		tb, ok := b.ByZone[z]
		if !ok {
			t.Fatalf("zone %s missing", z)
		}
		if len(ta.Points) != len(tb.Points) {
			t.Fatalf("zone %s point counts differ: %d vs %d", z, len(ta.Points), len(tb.Points))
		}
		for i := range ta.Points {
			if ta.Points[i] != tb.Points[i] {
				t.Fatalf("zone %s point %d: %+v vs %+v", z, i, ta.Points[i], tb.Points[i])
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := genSmallSet(t)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVPools(&buf, market.M1Small, nil, s.Start, s.End)
	if err != nil {
		t.Fatal(err)
	}
	setsEqual(t, s, got)
}

func TestCSVHeaderCheck(t *testing.T) {
	_, err := ReadCSVPools(strings.NewReader("a,b\n1,2\n"), market.M1Small, nil, 0, 10)
	if err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestCSVTypeMismatch(t *testing.T) {
	s := genSmallSet(t)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCSVPools(&buf, market.M3Large, nil, s.Start, s.End); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestCSVEmpty(t *testing.T) {
	if _, err := ReadCSVPools(strings.NewReader(""), market.M1Small, nil, 0, 10); err == nil {
		t.Fatal("empty CSV accepted")
	}
}

func TestCSVBadRows(t *testing.T) {
	bad := []string{
		"zone,type,minute,price_usd\nus-east-1a,m1.small,xyz,0.01\n",
		"zone,type,minute,price_usd\nus-east-1a,m1.small,0,abc\n",
	}
	for _, csvText := range bad {
		if _, err := ReadCSVPools(strings.NewReader(csvText), market.M1Small, nil, 0, 10); err == nil {
			t.Fatalf("bad CSV accepted: %q", csvText)
		}
	}
}

const csvHeader = "zone,type,minute,price_usd\n"

// TestCSVStrictRejectsWithLineNumbers pins strict mode's contract: the
// first malformed row fails the read with an error naming its line —
// the physical line, so blank lines and a newline inside a quoted field
// count (records were counted until PR 19, which named line 3 for both
// of the last two rows).
func TestCSVStrictRejectsWithLineNumbers(t *testing.T) {
	cases := []struct{ name, rows, wantLine string }{
		{"nan-price", "us-east-1a,m1.small,0,NaN\n", "line 2"},
		{"inf-price", "us-east-1a,m1.small,0,+Inf\n", "line 2"},
		{"zero-price", "us-east-1a,m1.small,0,0\n", "line 2"},
		{"negative-price", "us-east-1a,m1.small,0,-0.01\n", "line 2"},
		{"duplicate-minute", "us-east-1a,m1.small,0,0.01\nus-east-1a,m1.small,0,0.02\n", "line 3"},
		{"out-of-order-minute", "us-east-1a,m1.small,0,0.01\nus-east-1a,m1.small,10,0.02\nus-east-1a,m1.small,5,0.02\n", "line 4"},
		{"truncated-row", "us-east-1a,m1.small,0,0.01\nus-east-1a,m1.small,5\n", "line 3"},
		{"bad-minute", "us-east-1a,m1.small,later,0.01\n", "line 2"},
		{"after-blank-lines", "us-east-1a,m1.small,0,0.01\n\n\nus-east-1a,m1.small,5,abc\n", "line 5"},
		{"after-quoted-newline", "\"us-east\n-1a\",m1.small,0,0.01\nus-east-1b,m1.small,0,abc\n", "line 4"},
		{"stray-quote", "us-east-1a,m1.small,0,0.01\n\nus-east-1a,m1.sm\"all,5,0.01\n", "line 4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadCSVPools(strings.NewReader(csvHeader+c.rows), market.M1Small, nil, 0, 24*60)
			if err == nil {
				t.Fatal("malformed CSV accepted")
			}
			if !strings.Contains(err.Error(), c.wantLine) {
				t.Fatalf("error %q does not name %s", err, c.wantLine)
			}
		})
	}
}

// TestCSVLenientQuarantinesAndKeepsRest drives one of every violation
// through a lenient read and checks the good rows survive while the
// report accounts each bad one by reason.
func TestCSVLenientQuarantinesAndKeepsRest(t *testing.T) {
	body := csvHeader +
		"us-east-1a,m1.small,0,0.01\n" + // good
		"us-east-1a,m1.small,10,NaN\n" + // nan-price
		"us-east-1a,m1.small,15,0\n" + // non-positive-price
		"us-east-1a,m1.small,20,0.02\n" + // good
		"us-east-1a,m1.small,20,0.03\n" + // duplicate-minute
		"us-east-1a,m1.small,5,0.03\n" + // out-of-order-minute
		"us-east-1a,m1.small,30\n" + // truncated-row
		"us-east-1a,m1.small,later,0.01\n" + // bad-minute
		"us-east-1a,m3.large,40,0.01\n" // type-mismatch
	set, rep, err := ReadCSVPoolsMode(strings.NewReader(body), market.M1Small, nil, 0, 24*60, Lenient)
	if err != nil {
		t.Fatal(err)
	}
	pts := set.ByZone["us-east-1a"].Points
	if len(pts) != 2 || pts[0].Minute != 0 || pts[1].Minute != 20 {
		t.Fatalf("kept points %+v, want minutes 0 and 20", pts)
	}
	if rep.Quarantined != 7 {
		t.Fatalf("quarantined %d rows, want 7: %+v", rep.Quarantined, rep.Reasons)
	}
	for _, reason := range []string{
		ReasonNaNPrice, ReasonNonPositivePrice, ReasonDuplicateMinute,
		ReasonOutOfOrder, ReasonTruncatedRow, ReasonBadMinute, ReasonTypeMismatch,
	} {
		if rep.Reasons[reason] != 1 {
			t.Errorf("reason %s counted %d times, want 1 (%+v)", reason, rep.Reasons[reason], rep.Reasons)
		}
	}
}

// TestCSVLenientDropsUnusableZone: a zone whose surviving rows cannot
// form a valid trace (first point after the span start once the bad row
// is gone) is dropped and counted, not fatal.
func TestCSVLenientDropsUnusableZone(t *testing.T) {
	body := csvHeader +
		"eu-west-1b,m1.small,0,-1\n" + // quarantined, leaving the zone to start at 10
		"eu-west-1b,m1.small,10,0.02\n" +
		"us-east-1a,m1.small,0,0.01\n"
	set, rep, err := ReadCSVPoolsMode(strings.NewReader(body), market.M1Small, nil, 0, 24*60, Lenient)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := set.ByZone["eu-west-1b"]; ok {
		t.Fatal("unusable zone kept")
	}
	if _, ok := set.ByZone["us-east-1a"]; !ok {
		t.Fatal("good zone dropped")
	}
	if rep.Reasons[ReasonZoneDropped] != 1 || rep.Reasons[ReasonNonPositivePrice] != 1 {
		t.Fatalf("report %+v, want one zone-dropped and one non-positive-price", rep.Reasons)
	}

	// When every zone is unusable, even a lenient read must fail rather
	// than return an empty set.
	empty := csvHeader + "us-east-1a,m1.small,5,0.01\n" // first point after span start
	if _, _, err := ReadCSVPoolsMode(strings.NewReader(empty), market.M1Small, nil, 0, 24*60, Lenient); err == nil {
		t.Fatal("zone-less lenient read accepted")
	}
}

// TestCSVHeaderFixesRowWidth: the header decides how wide a row is, so
// a row of the other layout's width is a truncated-row in both layouts
// (the pool reader used to parse "zone,type,minute" under the
// four-column header as zone,minute,price and call it bad-minute) and a
// file that mixes the two is not a valid file.
func TestCSVHeaderFixesRowWidth(t *testing.T) {
	cases := []struct{ name, body, want string }{
		{"three-under-four", csvHeader + "us-east-1a,m1.small,0,0.01\nus-east-1a,m1.small,5\n", "line 3: 3 fields, want 4"},
		{"four-under-three", "zone,minute,price_usd\nus-east-1a,0,0.01\nus-east-1a,m1.small,5,0.02\n", "line 3: 4 fields, want 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadCSVPools(strings.NewReader(c.body), market.M1Small, nil, 0, 24*60)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("strict error %v, want %q", err, c.want)
			}
			set, rep, err := ReadCSVPoolsMode(strings.NewReader(c.body), market.M1Small, nil, 0, 24*60, Lenient)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Quarantined != 1 || rep.Reasons[ReasonTruncatedRow] != 1 {
				t.Fatalf("report %+v, want one truncated-row", rep.Reasons)
			}
			if n := len(set.ByZone["us-east-1a"].Points); n != 1 {
				t.Fatalf("kept %d points, want 1", n)
			}
		})
	}
}

// TestCSVReadErrorIsNotARow: a reader that fails mid-stream is not a
// malformed row. Both modes return the error; Lenient used to book every
// failed read as a truncated-row and retry it forever, so the read runs
// under a deadline.
func TestCSVReadErrorIsNotARow(t *testing.T) {
	ioErr := errors.New("disk on fire")
	for _, mode := range []ReadMode{Strict, Lenient} {
		r := io.MultiReader(strings.NewReader(csvHeader+"us-east-1a,m1.small,0,0.01\n"), iotest.ErrReader(ioErr))
		type result struct {
			set *Set
			rep *ReadReport
			err error
		}
		done := make(chan result, 1) // buffered: the reader may finish after the deadline gave up on it
		go func() {
			set, rep, err := ReadCSVPoolsMode(r, market.M1Small, nil, 0, 24*60, mode)
			done <- result{set, rep, err}
		}()
		select {
		case got := <-done:
			if !errors.Is(got.err, ioErr) || !strings.Contains(got.err.Error(), "trace: reading CSV") {
				t.Fatalf("mode %d: error %v, want the reader's wrapped as a CSV read error", mode, got.err)
			}
			if got.set != nil || got.rep != nil {
				t.Fatalf("mode %d: a failed read returned set %v, report %+v", mode, got.set, got.rep)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("mode %d: still reading a failing reader after 2 s", mode)
		}
	}
}
