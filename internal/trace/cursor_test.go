package trace

import (
	"math/rand"
	"testing"

	"repro/internal/market"
)

func cursorTestTrace(t *testing.T) *Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tr := &Trace{Zone: "us-east-1a", Type: market.M1Medium, Start: 0, End: 10000}
	minute := int64(0)
	price := market.Money(58000)
	for minute < tr.End {
		tr.Points = append(tr.Points, PricePoint{Minute: minute, Price: price})
		minute += 1 + rng.Int63n(90)
		price = market.Money(40000 + rng.Int63n(120000))
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("test trace invalid: %v", err)
	}
	return tr
}

// TestCursorMatchesTrace drives a cursor through monotone, locally
// jittered, and fully random query streams and checks every answer
// against the plain binary-search methods.
func TestCursorMatchesTrace(t *testing.T) {
	tr := cursorTestTrace(t)
	rng := rand.New(rand.NewSource(99))

	streams := map[string]func(i int) int64{
		"monotone": func(i int) int64 { return int64(i) % (tr.End - tr.Start) },
		"jittered": func(i int) int64 {
			m := int64(i)%(tr.End-tr.Start-10) + rng.Int63n(10)
			return m
		},
		"random": func(int) int64 { return rng.Int63n(tr.End - tr.Start) },
	}
	for name, next := range streams {
		c := NewCursor(tr)
		for i := 0; i < 5000; i++ {
			m := next(i)
			if got, want := c.PriceAt(m), tr.PriceAt(m); got != want {
				t.Fatalf("%s: PriceAt(%d) = %d, want %d", name, m, got, want)
			}
			if got, want := c.AgeAt(m), tr.AgeAt(m); got != want {
				t.Fatalf("%s: AgeAt(%d) = %d, want %d", name, m, got, want)
			}
		}
	}
}

func TestCursorPanicsOutsideSpan(t *testing.T) {
	tr := cursorTestTrace(t)
	c := NewCursor(tr)
	for _, m := range []int64{tr.Start - 1, tr.End, tr.End + 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PriceAt(%d): no panic", m)
				}
			}()
			c.PriceAt(m)
		}()
	}
}
