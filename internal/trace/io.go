package trace

// This file is the reader regime every input of the repository goes
// through: the Strict/Lenient decision (ReadReport.Violation), the CSV
// record loop (ScanCSV, also internal/workload's), the CSV trace writer
// and reader, and the pool assembler (Assembler, also colbin.Decode's).

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/market"
)

// ReadMode selects how the readers treat malformed input rows.
type ReadMode int

const (
	// Strict rejects the first malformed row with an error naming its
	// line. The default for every command-line tool.
	Strict ReadMode = iota
	// Lenient quarantines malformed rows — skips them and counts each
	// by reason in the returned ReadReport — and keeps whatever parses.
	// A zone whose rows were all quarantined is dropped rather than
	// failing set validation.
	Lenient
)

// Quarantine reasons reported by lenient reads.
const (
	ReasonTruncatedRow     = "truncated-row"
	ReasonBadMinute        = "bad-minute"
	ReasonBadPrice         = "bad-price"
	ReasonNaNPrice         = "nan-price"
	ReasonNonPositivePrice = "non-positive-price"
	ReasonDuplicateMinute  = "duplicate-minute"
	ReasonOutOfOrder       = "out-of-order-minute"
	ReasonTypeMismatch     = "type-mismatch"
	ReasonZoneDropped      = "zone-dropped"
)

// ReadReport accounts the rows a lenient read quarantined, by reason.
// A command prints its Summary, and the run manifest records its
// Reasons.
type ReadReport struct {
	// Quarantined is the total number of skipped rows (zone drops count
	// once per zone).
	Quarantined int
	// Reasons maps a Reason* constant to its occurrence count.
	Reasons map[string]int
}

// Violation is the one place a reader's mode is consulted, for every
// reader in the repository (CSV rows, colbin points and pools, workload
// rows): Strict turns the violation into an error — format and args
// must locate it, "trace: line 7: …", "colbin: pool us-east-1a point
// 3: …" — and Lenient counts it under a Reason* constant and returns
// nil, so the caller skips the row and carries on.
func (r *ReadReport) Violation(mode ReadMode, reason, format string, args ...any) error {
	if mode == Lenient {
		if r.Reasons == nil {
			r.Reasons = make(map[string]int)
		}
		r.Quarantined++
		r.Reasons[reason]++
		return nil
	}
	return fmt.Errorf(format, args...)
}

// Summary is the line a command prints to stderr after a read: empty
// for a nil or clean report, otherwise "prog: quarantined N malformed
// <what> rows: map[reason:count …]" and a newline.
func (r *ReadReport) Summary(prog, what string) string {
	if r == nil || r.Quarantined == 0 {
		return ""
	}
	return fmt.Sprintf("%s: quarantined %d malformed %s rows: %v\n", prog, r.Quarantined, what, r.Reasons)
}

// ScanCSV is the one CSV record loop; price traces (below) and request
// rates (internal/workload) are its clients, so these rules are written
// once. The header row must satisfy known and fixes the width of every
// row after it. A record encoding/csv cannot parse (*csv.ParseError: a
// stray or unclosed quote) or of another width is a truncated-row
// violation; any other read error is the underlying reader failing, not
// a bad row, and is returned in both modes — quarantining it would
// retry a failing reader forever. A well-formed record goes to row,
// which returns "" to keep it or a Reason* and a detail to reject it;
// row's last check must be after, which holds each series to strictly
// ascending minutes among the rows kept so far. Violations are located
// by physical line (blank lines and quoted newlines count), the line
// the record starts on.
func ScanCSV(r io.Reader, pkg string, mode ReadMode, known func(header []string) bool,
	row func(fields []string, after func(series string, minute int64) (reason, detail string)) (reason, detail string),
) (*ReadReport, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // a row of the wrong width is a violation to report, not a parse error
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("%s: empty CSV", pkg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: reading CSV: %w", pkg, err)
	}
	if !known(header) {
		return nil, fmt.Errorf("%s: unexpected CSV header %v", pkg, header)
	}
	last := map[string]int64{}
	after := func(series string, minute int64) (string, string) {
		if prev, seen := last[series]; seen && minute <= prev {
			reason := ReasonOutOfOrder
			if minute == prev {
				reason = ReasonDuplicateMinute
			}
			return reason, fmt.Sprintf("minute %d not after %d", minute, prev)
		}
		last[series] = minute
		return "", ""
	}
	report := &ReadReport{}
	for {
		fields, err := cr.Read()
		if err == io.EOF {
			return report, nil
		}
		var line int
		var reason, detail string
		var perr *csv.ParseError
		switch {
		case errors.As(err, &perr):
			line, reason, detail = perr.StartLine, ReasonTruncatedRow, perr.Err.Error()
		case err != nil:
			return nil, fmt.Errorf("%s: reading CSV: %w", pkg, err)
		case len(fields) != len(header):
			reason, detail = ReasonTruncatedRow, fmt.Sprintf("%d fields, want %d", len(fields), len(header))
		default:
			reason, detail = row(fields, after)
		}
		if reason == "" {
			continue
		}
		if line == 0 {
			line, _ = cr.FieldPos(0)
		}
		if err := report.Violation(mode, reason, "%s: line %d: %s", pkg, line, detail); err != nil {
			return nil, err
		}
	}
}

// checkPrice classifies a price in dollars; ok rows return "".
func checkPrice(dollars float64) string {
	if math.IsNaN(dollars) || math.IsInf(dollars, 0) {
		return ReasonNaNPrice
	}
	if dollars <= 0 {
		return ReasonNonPositivePrice
	}
	return ""
}

// CSV layout: header "zone,type,minute,price_usd" followed by one row per
// price point, grouped by zone in ascending minute order. Typed pools
// write their real zone and type per row; ReadCSVPoolsMode reconstructs
// the pool keys from them. A file whose header is "zone,minute,price_usd"
// has no type column and every row of it is a base-type point.

// WriteCSV serializes the set in the four-column CSV layout above.
func (s *Set) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"zone", "type", "minute", "price_usd"}); err != nil {
		return err
	}
	for _, zone := range s.Zones() {
		t := s.ByZone[zone]
		for _, p := range t.Points {
			row := []string{
				t.Zone,
				string(t.Type),
				strconv.FormatInt(p.Minute, 10),
				strconv.FormatFloat(p.Price.Dollars(), 'f', -1, 64),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSVPools parses a CSV trace set in Strict mode; see
// ReadCSVPoolsMode.
func ReadCSVPools(r io.Reader, base market.InstanceType, types []market.InstanceType, start, end int64) (*Set, error) {
	set, _, err := ReadCSVPoolsMode(r, base, types, start, end, Strict)
	return set, err
}

// ReadCSVPoolsMode is the CSV trace reader: it parses a set written by
// WriteCSV into pool-keyed traces. The span is supplied by the caller
// because the CSV stores only change points. Under the four-column
// header a row naming base is a bare-zone pool and a row naming a type
// in types a "zone/type" pool; any other type is a type-mismatch
// violation, so a single-type read is this reader with no types. Under
// the three-column header every row is a base-type point. Rows must
// arrive in ascending minute order per pool with positive finite
// prices; Strict rejects the first violation with its line number,
// Lenient quarantines violating rows and reports them (see ScanCSV).
func ReadCSVPoolsMode(r io.Reader, base market.InstanceType, types []market.InstanceType, start, end int64, mode ReadMode) (*Set, *ReadReport, error) {
	allowed := map[market.InstanceType]bool{base: true}
	for _, it := range types {
		allowed[it] = true
	}
	known := func(h []string) bool {
		return len(h) == 4 && h[0] == "zone" && h[2] == "minute" ||
			len(h) == 3 && h[0] == "zone" && h[1] == "minute"
	}
	byKey := map[string]*Trace{}
	var pools []*Trace // in order of first appearance, so a Strict pool error does not depend on map order
	report, err := ScanCSV(r, "trace", mode, known, func(row []string, after func(string, int64) (string, string)) (string, string) {
		typ, rest := base, row[1:]
		if len(row) == 4 {
			typ, rest = market.InstanceType(row[1]), row[2:]
			if !allowed[typ] {
				return ReasonTypeMismatch, fmt.Sprintf("type %q not among requested types", row[1])
			}
		}
		minute, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return ReasonBadMinute, fmt.Sprintf("minute: %v", err)
		}
		dollars, err := strconv.ParseFloat(rest[1], 64)
		if err != nil {
			return ReasonBadPrice, fmt.Sprintf("price: %v", err)
		}
		if reason := checkPrice(dollars); reason != "" {
			return reason, fmt.Sprintf("price %v is not a positive finite number", rest[1])
		}
		key := market.PoolKey(row[0], typ, base)
		if reason, detail := after(key, minute); reason != "" {
			return reason, detail
		}
		t := byKey[key]
		if t == nil {
			t = &Trace{Zone: row[0], Type: typ, Start: start, End: end}
			byKey[key] = t
			pools = append(pools, t)
		}
		t.Points = append(t.Points, PricePoint{Minute: minute, Price: market.FromDollars(dollars)})
		return "", ""
	})
	if err != nil {
		return nil, nil, err
	}
	set, err := Assemble(base, start, end, pools, mode, report)
	if err != nil {
		return nil, nil, err
	}
	return set, report, nil
}

// Assemble builds the Set a reader returns from the pools it decoded
// (the CSV reader above), through an Assembler.
func Assemble(base market.InstanceType, start, end int64, pools []*Trace, mode ReadMode, report *ReadReport) (*Set, error) {
	a := NewAssembler(base, start, end, mode, report)
	for _, t := range pools {
		a.Add(t)
	}
	return a.Set()
}

// An Assembler builds the Set a reader returns, one decoded pool at a
// time (Assemble, colbin.Decode): Set.AddPool — span, no duplicate,
// Trace.Validate — is the one definition of a valid pool. A pool that
// fails it (first point past the span start once a bad row was
// quarantined, say) is a zone-dropped violation: dropped and counted in
// Lenient; in Strict the first one is the error Set returns, and later
// pools are ignored. A set left with no pools at all is an error in
// both modes.
//
// Holding the Strict error until Set lets a reader add each pool as
// soon as it is decoded, while its points are still in cache, and
// still report an error that a later pool's decoding raises first — as
// decoding every pool before assembling any would.
type Assembler struct {
	set    *Set
	mode   ReadMode
	report *ReadReport
	err    error
}

// NewAssembler starts an empty set of the given base type and span.
func NewAssembler(base market.InstanceType, start, end int64, mode ReadMode, report *ReadReport) *Assembler {
	return &Assembler{set: NewSet(base, start, end), mode: mode, report: report}
}

// Add adds one pool, or books it as a zone-dropped violation.
func (a *Assembler) Add(t *Trace) {
	if a.err != nil {
		return
	}
	if err := a.set.AddPool(t); err != nil {
		a.err = a.report.Violation(a.mode, ReasonZoneDropped, "%w", err)
	}
}

// Set returns the assembled set, or the first Strict violation, or an
// error if no pool was usable.
func (a *Assembler) Set() (*Set, error) {
	if a.err != nil {
		return nil, a.err
	}
	if len(a.set.ByZone) == 0 {
		return nil, fmt.Errorf("trace: no usable zones")
	}
	return a.set, nil
}
