// Package market models the Amazon EC2 marketplace the paper bids into:
// regions and availability zones (paper Table 1), instance types with
// per-zone on-demand prices, and the spot billing rules of §2.1 —
// hourly charging at the last spot price of the hour, free partial hours
// on provider-initiated (out-of-bid) termination, and paid partial hours
// on user-initiated termination.
package market

import (
	"fmt"
	"strings"
)

// Money is an amount of USD in integer micro-dollars (1e-6 USD). Integer
// arithmetic keeps billing and bid comparison exact; EC2 prices have at
// most four decimal places, which micro-dollars represent exactly.
type Money int64

// Dollar is one US dollar in Money's micro-dollar units.
const Dollar Money = 1_000_000

// FromDollars converts a float dollar amount to Money, rounding to the
// nearest micro-dollar.
func FromDollars(d float64) Money {
	if d >= 0 {
		return Money(d*1e6 + 0.5)
	}
	return Money(d*1e6 - 0.5)
}

// Dollars returns the amount as a float64 dollar value.
func (m Money) Dollars() float64 { return float64(m) / 1e6 }

// String renders the amount as dollars with up to six decimals,
// e.g. "$0.0071".
func (m Money) String() string {
	neg := m < 0
	v := m
	if neg {
		v = -v
	}
	whole := v / Dollar
	frac := v % Dollar
	s := fmt.Sprintf("%d.%06d", whole, frac)
	s = strings.TrimRight(s, "0")
	s = strings.TrimSuffix(s, ".")
	if neg {
		return "-$" + s
	}
	return "$" + s
}

// MulFrac scales the amount by num/den with round-half-up, used for
// "spot price plus an extra portion p" heuristics. Panics if den <= 0.
func (m Money) MulFrac(num, den int64) Money {
	if den <= 0 {
		panic("market: MulFrac with den <= 0")
	}
	prod := int64(m) * num
	if prod >= 0 {
		return Money((prod + den/2) / den)
	}
	return Money((prod - den/2) / den)
}

// Scale multiplies the amount by a float factor, rounding to the nearest
// micro-dollar.
func (m Money) Scale(f float64) Money {
	return FromDollars(m.Dollars() * f)
}
