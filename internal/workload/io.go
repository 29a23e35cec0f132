package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/trace"
)

// Quarantine reasons specific to workload reads; ordering and
// truncation violations reuse the internal/trace constants so a mixed
// quarantine report reads uniformly.
const (
	ReasonBadRPS      = "bad-rps"
	ReasonNaNRPS      = "nan-rps"
	ReasonNegativeRPS = "negative-rps"
)

// checkRPS classifies a request rate; ok values return "".
func checkRPS(rps float64) string {
	if math.IsNaN(rps) || math.IsInf(rps, 0) {
		return ReasonNaNRPS
	}
	if rps < 0 {
		return ReasonNegativeRPS
	}
	return ""
}

// CSV layout: header "minute,rps" followed by one change point per
// row in strictly ascending minute order.

var csvHeader = []string{"minute", "rps"}

// WriteCSV serializes the trace in the CSV layout above.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, p := range t.Points {
		row := []string{
			strconv.FormatInt(p.Minute, 10),
			strconv.FormatFloat(p.RPS, 'f', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSVMode parses a workload trace written by WriteCSV; the span is
// supplied by the caller, exactly as for price traces. Rows must arrive
// in strictly ascending minute order with non-negative finite rates.
// Strict mode rejects the first violation with its line number; Lenient
// mode quarantines violating rows — counting each by reason in the
// returned report — and keeps whatever parses (see trace.ScanCSV, the
// record loop this shares with the price-trace reader).
func ReadCSVMode(r io.Reader, start, end int64, mode trace.ReadMode) (*Trace, *trace.ReadReport, error) {
	known := func(h []string) bool { return len(h) == 2 && h[0] == csvHeader[0] && h[1] == csvHeader[1] }
	var points []Point
	report, err := trace.ScanCSV(r, "workload", mode, known, func(row []string, after func(string, int64) (string, string)) (string, string) {
		minute, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return trace.ReasonBadMinute, fmt.Sprintf("minute: %v", err)
		}
		rps, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return ReasonBadRPS, fmt.Sprintf("rps: %v", err)
		}
		if reason := checkRPS(rps); reason != "" {
			return reason, fmt.Sprintf("rps %v is not a non-negative finite number", row[1])
		}
		if reason, detail := after("", minute); reason != "" {
			return reason, detail
		}
		points = append(points, Point{Minute: minute, RPS: rps})
		return "", ""
	})
	if err != nil {
		return nil, nil, err
	}
	t, err := New(start, end, points)
	if err != nil {
		return nil, nil, err
	}
	return t, report, nil
}
