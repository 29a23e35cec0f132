package smc

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// The bounds of one fuzz input: enough points for windows that hold
// every sojourn class, few enough slides that an input stays well under
// a second.
const (
	maxFuzzPoints = 8192
	maxFuzzSlides = 2048
	maxFuzzGap    = 3600
)

// fuzzCaps are the sojourn caps an input picks from: the default, and
// caps small enough that most runs clamp onto them.
var fuzzCaps = []int64{0, 1, 5, 30, 600}

// decodeTrace reads a price history four bytes a point: a level of the
// n-level ladder 1000 + 37·level (two bytes, modulo n) and the minutes
// to the next point (two bytes, 1 to maxFuzzGap, past the default cap).
// The trace starts at minute 0 and ends where the last gap does.
func decodeTrace(n int, data []byte) *trace.Trace {
	tr := &trace.Trace{Zone: "test-1a", Type: market.M1Small}
	for ; len(data) >= 4 && len(tr.Points) < maxFuzzPoints; data = data[4:] {
		level := int(binary.BigEndian.Uint16(data)) % n
		tr.Points = append(tr.Points, trace.PricePoint{Minute: tr.End, Price: market.Money(1000 + 37*level)})
		tr.End += 1 + int64(binary.BigEndian.Uint16(data[2:]))%maxFuzzGap
	}
	return tr
}

// encodeTrace is decodeTrace's inverse up to the origin and the prices'
// values, which no count depends on: each price becomes its rank among
// the trace's prices. It returns the ladder width as the fuzzer's levels
// argument.
func encodeTrace(tr *trace.Trace) (levels uint16, data []byte) {
	var prices []market.Money
	for _, p := range tr.Points {
		if x, ok := slices.BinarySearch(prices, p.Price); !ok {
			prices = slices.Insert(prices, x, p.Price)
		}
	}
	for x, p := range tr.Points {
		next := tr.End
		if x+1 < len(tr.Points) {
			next = tr.Points[x+1].Minute
		}
		rank, _ := slices.BinarySearch(prices, p.Price)
		data = binary.BigEndian.AppendUint16(data, uint16(rank))
		data = binary.BigEndian.AppendUint16(data, uint16(next-p.Minute-1))
	}
	return uint16(len(prices) - 1), data
}

// FuzzWindowedEstimator pins the sliding window to the from-scratch
// estimator under arbitrary histories and slide schedules. The input is
// a ladder width (1 to 300 levels), a sojourn cap from fuzzCaps, a
// window width, a trace as decodeTrace reads it, and two bytes a slide:
// the step (0 stays, 1 moves a minute, 255 jumps past the whole window,
// s otherwise moves s/96 of the width) and flags — bit 0 asks for a
// model, bits 1–2 pick the history handed over (the full trace, a view
// of the window, a view of the suffix past the previous end, or one of
// that suffix on to the trace's end), bit 3 shrinks
// the window from its start by the high nibble's sixteenths of the
// width. At every model asked for, and at the last, the counts must
// dump to the bytes of a from-scratch Estimator's over the same window
// and the frozen tables must equal its model's bit for bit; nothing may
// panic. The seeds include a long churn — fifteen hundred slides with
// no model in between — the smallest caps, and a run fed nothing but
// suffix views of the one parent, as the model cache feeds it.
func FuzzWindowedEstimator(f *testing.F) {
	seed := func(tr *trace.Trace, capSel uint8, width uint16, slides []byte) {
		levels, data := encodeTrace(tr)
		f.Add(levels, capSel, width, data, slides)
	}
	churn := randomTrace(rand.New(rand.NewSource(5)), 4, 6000)
	slides := []byte{96, 1}
	for until := churn.Start + 3000; until+3000 < churn.End; until += 1000 {
		slides = append(slides, 32, 0)
	}
	seed(churn, 0, 2999, slides)
	seed(randomTrace(rand.New(rand.NewSource(1)), 3, 400), 2, 599,
		[]byte{0, 1, 1, 3, 40, 5, 255, 1, 20, 0x39, 48, 3, 60, 5, 0, 4, 96, 0x21, 1, 1})
	seed(randomTrace(rand.New(rand.NewSource(2)), 300, 2000), 1, 19999,
		[]byte{96, 1, 24, 5, 24, 3, 255, 0x71, 50, 1, 7, 0x8b})
	suffixes := []byte{96, 1}
	for x, step := range []byte{1, 8, 0, 24, 3, 48, 8, 1, 16, 5, 96, 8} {
		suffixes = append(suffixes, step, []byte{0x05, 0x07, 0x2d, 0x4f}[x%4])
	}
	seed(randomTrace(rand.New(rand.NewSource(3)), 5, 3000), 3, 4999, suffixes)

	f.Fuzz(func(t *testing.T, levels uint16, capSel uint8, width uint16, points, slides []byte) {
		tr := decodeTrace(1+int(levels)%300, points)
		if len(tr.Points) == 0 {
			return
		}
		maxSojourn := fuzzCaps[int(capSel)%len(fuzzCaps)]
		span := 1 + int64(width)
		w := NewWindowedEstimator(maxSojourn)
		from, until := int64(0), int64(0)
		check := func(slide int) {
			scratch := NewEstimator(maxSojourn)
			scratch.Observe(tr.Window(from, until))
			if got, want := w.est.observations, scratch.observations; got != want {
				t.Fatalf("slide %d [%d, %d): %d observations, from scratch %d", slide, from, until, got, want)
			}
			if want := scratch.observations; want == 0 {
				if _, err := w.Model(); err == nil {
					t.Fatalf("slide %d [%d, %d): a model of an empty window", slide, from, until)
				}
				return
			}
			requireMatchesScratch(t, fmt.Sprintf("slide %d [%d, %d)", slide, from, until), w, scratch)
		}
		for x := 0; x+1 < len(slides) && x < 2*maxFuzzSlides; x += 2 {
			step, flags := slides[x], slides[x+1]
			prevUntil := until
			switch step {
			case 0:
			case 1:
				until++
			case 255:
				until += span + int64(flags>>4)*span/16
			default:
				until += int64(step) * span / 96
			}
			until = min(until, tr.End)
			from = max(from, until-span)
			if flags&8 != 0 {
				from = min(until, from+int64(flags>>4)*span/16)
			}
			hist := tr
			switch flags >> 1 & 3 {
			case 1:
				hist = tr.Window(from, until)
			case 2:
				if from < prevUntil {
					hist = tr.Window(prevUntil, until)
				}
			case 3:
				if from < prevUntil {
					hist = tr.Window(prevUntil, tr.End)
				}
			}
			if err := w.Advance(hist, from, until); err != nil {
				t.Fatalf("slide %d: Advance [%d, %d): %v", x/2, from, until, err)
			}
			if flags&1 != 0 {
				check(x / 2)
			}
		}
		check(-1)
	})
}
