package market

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromDollars(t *testing.T) {
	cases := []struct {
		in   float64
		want Money
	}{
		{0, 0},
		{0.0071, 7100},
		{0.044, 44000},
		{1, 1_000_000},
		{-0.5, -500_000},
		{0.000001, 1},
	}
	for _, c := range cases {
		if got := FromDollars(c.in); got != c.want {
			t.Errorf("FromDollars(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestMoneyString(t *testing.T) {
	cases := []struct {
		in   Money
		want string
	}{
		{0, "$0"},
		{7100, "$0.0071"},
		{FromDollars(0.044), "$0.044"},
		{Dollar, "$1"},
		{-Dollar - 250_000, "-$1.25"},
		{FromDollars(1293.6), "$1293.6"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMoneyRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		m := Money(v % 1_000_000_000_000)
		// String prints every micro-dollar digit, and below 10¹² of them a
		// float64 holds the printed dollars well inside FromDollars's
		// rounding, so the pair is an exact inverse.
		d, err := strconv.ParseFloat(strings.Replace(m.String(), "$", "", 1), 64)
		return err == nil && FromDollars(d) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDollarsInverse(t *testing.T) {
	f := func(v int32) bool {
		m := Money(v)
		return FromDollars(m.Dollars()) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulFrac(t *testing.T) {
	m := FromDollars(0.010) // 10000 µ$
	if got := m.MulFrac(11, 10); got != FromDollars(0.011) {
		t.Fatalf("1.1x = %v, want $0.011", got)
	}
	if got := m.MulFrac(12, 10); got != FromDollars(0.012) {
		t.Fatalf("1.2x = %v, want $0.012", got)
	}
	if got := Money(-10000).MulFrac(11, 10); got != -11000 {
		t.Fatalf("negative scaling = %v, want -11000", got)
	}
}

func TestScale(t *testing.T) {
	m := FromDollars(0.008)
	got := m.Scale(1.1)
	if math.Abs(got.Dollars()-0.0088) > 1e-9 {
		t.Fatalf("Scale(1.1) = %v", got)
	}
}
