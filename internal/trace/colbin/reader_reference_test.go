package colbin

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// checkReference fails t unless Decode and decodeReference agree on
// data in mode: the same error text, or the same pools point for point
// and the same ReadReport.
func checkReference(t testing.TB, data []byte, mode trace.ReadMode) {
	t.Helper()
	f, rep, err := Decode(data, mode)
	rf, rrep, rerr := decodeReference(data, mode)
	if fmt.Sprint(err) != fmt.Sprint(rerr) {
		t.Fatalf("mode %d on %x: error %v, reference %v", mode, data, err, rerr)
	}
	if err != nil {
		return
	}
	if rep.Quarantined != rrep.Quarantined || !maps.Equal(rep.Reasons, rrep.Reasons) {
		t.Fatalf("mode %d on %x: report %+v, reference %+v", mode, data, *rep, *rrep)
	}
	s, r := f.Set(), rf.Set()
	if s.Type != r.Type || s.Start != r.Start || s.End != r.End || !slices.Equal(s.Zones(), r.Zones()) {
		t.Fatalf("mode %d on %x: set %s [%d,%d) %v, reference %s [%d,%d) %v",
			mode, data, s.Type, s.Start, s.End, s.Zones(), r.Type, r.Start, r.End, r.Zones())
	}
	for key, tr := range s.ByZone {
		rt := r.ByZone[key]
		if tr.Zone != rt.Zone || tr.Type != rt.Type || tr.Start != rt.Start || tr.End != rt.End || !slices.Equal(tr.Points, rt.Points) {
			t.Fatalf("mode %d on %x: pool %s differs from the reference", mode, data, key)
		}
	}
}

// decodeReference is the straightforward decoder, kept as a test
// oracle: both columns read through decoder.uvarint/varint one value at
// a time, the price column found by a bytewise terminator count, the
// pools assembled after all are decoded. Decode must return what it
// returns — the same points, ReadReport and error text — on every
// input (TestDecodeMatchesReference, FuzzReadColbin).
//
// decodeReference parses a colbin stream into the trace.Set it describes.
// Structural corruption — bad magic, truncated varints, a directory
// that declares more points than the input has bytes for or points
// outside the column section — is an error in both modes. Per-point
// violations (non-positive price, duplicate minute, a delta or running
// sum that leaves int64) and per-pool violations (unknown type, and
// whatever trace.Assemble rejects: duplicate pool, first point off the
// span start, last point beyond its end) follow the Strict/Lenient
// contract of trace.ReadCSVPoolsMode: Strict fails on the first one
// naming the pool and point, Lenient quarantines the point or drops the
// pool and counts it in the ReadReport.
func decodeReference(data []byte, mode trace.ReadMode) (*File, *trace.ReadReport, error) {
	if !IsColbin(data) {
		return nil, nil, fmt.Errorf("colbin: bad magic")
	}
	if len(data) < len(Magic)+1 {
		return nil, nil, fmt.Errorf("colbin: truncated header")
	}
	if v := data[len(Magic)]; v != Version {
		return nil, nil, fmt.Errorf("colbin: unsupported version %d (want %d)", v, Version)
	}
	d := &decoder{data: data, off: len(Magic) + 1}
	baseStr, err := d.str("base type")
	if err != nil {
		return nil, nil, err
	}
	base := market.InstanceType(baseStr)
	if _, err := market.Shape(base); err != nil {
		return nil, nil, fmt.Errorf("colbin: base type: %v", err)
	}
	start, err := d.varint("span start")
	if err != nil {
		return nil, nil, err
	}
	end, err := d.varint("span end")
	if err != nil {
		return nil, nil, err
	}
	if end < start {
		return nil, nil, fmt.Errorf("colbin: span end %d before start %d", end, start)
	}
	nPools, err := d.uvarint("pool count")
	if err != nil {
		return nil, nil, err
	}
	if nPools > uint64(len(data)) {
		return nil, nil, fmt.Errorf("colbin: pool count %d exceeds input size", nPools)
	}

	type dirEntry struct {
		zone, typ   string
		n           int
		off, length int
	}
	dir := make([]dirEntry, 0, nPools)
	// Every point costs at least one minute byte and one price byte, so
	// no honest directory declares more than len(data)/2 of them. Holding
	// each count and the running total to that bound before anything is
	// allocated also keeps the total from wrapping.
	maxPoints := uint64(len(data)) / 2
	var totalPoints uint64
	for i := uint64(0); i < nPools; i++ {
		var e dirEntry
		if e.zone, err = d.str("zone"); err != nil {
			return nil, nil, err
		}
		if e.typ, err = d.str("type"); err != nil {
			return nil, nil, err
		}
		n, err := d.uvarint("point count")
		if err != nil {
			return nil, nil, err
		}
		if n > maxPoints || totalPoints+n > maxPoints {
			return nil, nil, fmt.Errorf("colbin: declared points exceed input size")
		}
		totalPoints += n
		e.n = int(n)
		off, err := d.uvarint("group offset")
		if err != nil {
			return nil, nil, err
		}
		length, err := d.uvarint("group length")
		if err != nil {
			return nil, nil, err
		}
		if off > uint64(len(data)) || length > uint64(len(data)) {
			return nil, nil, fmt.Errorf("colbin: group bounds exceed input size")
		}
		e.off, e.length = int(off), int(length)
		dir = append(dir, e)
	}
	colStart := d.off

	report := &trace.ReadReport{}
	// One arena holds every pool's points; the declared total is its
	// capacity and each pool appends at most its declared count, so it
	// never reallocates under the pools already cut from it.
	arena := make([]trace.PricePoint, 0, totalPoints)
	pools := make([]*trace.Trace, 0, len(dir))
	for _, e := range dir {
		lo := colStart + e.off
		hi := lo + e.length
		if lo > len(data) || hi > len(data) || hi < lo {
			return nil, nil, fmt.Errorf("colbin: pool %s/%s column group outside input", e.zone, e.typ)
		}
		typ := base
		if e.typ != "" {
			typ = market.InstanceType(e.typ)
			if _, terr := market.Shape(typ); terr != nil {
				if err := report.Violation(mode, trace.ReasonTypeMismatch, "colbin: pool %s: %v", e.zone, terr); err != nil {
					return nil, nil, err
				}
				continue
			}
		}
		key := market.PoolKey(e.zone, typ, base)

		// The price column starts where the n-th minute varint ends; with
		// that offset known the two columns are walked in step and each
		// point is checked and stored once.
		priceLo := lo
		for left := e.n; left > 0; priceLo++ {
			if priceLo >= hi {
				return nil, nil, fmt.Errorf("colbin: pool %s: truncated minute column", key)
			}
			if data[priceLo] < 0x80 {
				left--
			}
		}
		gm := &decoder{data: data[:priceLo], off: lo}
		gp := &decoder{data: data[:hi], off: priceLo}
		first := len(arena)
		minute, price := start, int64(0)
		for i := 0; i < e.n; i++ {
			var dm int64
			okMinute := true
			if i == 0 {
				dm, err = gm.varint("minute")
			} else {
				var ud uint64
				ud, err = gm.uvarint("minute delta")
				dm, okMinute = int64(ud), ud <= math.MaxInt64
			}
			if err != nil {
				return nil, nil, fmt.Errorf("colbin: pool %s: %w", key, err)
			}
			dp, err := gp.varint("price delta")
			if err != nil {
				return nil, nil, fmt.Errorf("colbin: pool %s: %w", key, err)
			}
			// A delta the running sums cannot absorb is the point's fault
			// and is not applied: the chain carries on from the last
			// representable value, never from a wrapped one.
			okMinute = okMinute && advance(&minute, dm)
			okPrice := advance(&price, dp)
			var reason, detail string
			switch {
			case !okMinute:
				reason, detail = trace.ReasonOutOfOrder, "minute delta leaves int64"
			case !okPrice:
				reason, detail = trace.ReasonBadPrice, "price delta leaves int64"
			case price <= 0:
				reason, detail = trace.ReasonNonPositivePrice, fmt.Sprintf("price %d micro-USD not positive", price)
			case len(arena) > first && minute == arena[len(arena)-1].Minute:
				// Deltas are unsigned and checked, so the running minute
				// never falls: a repeat is the only order violation left.
				reason, detail = trace.ReasonDuplicateMinute, fmt.Sprintf("minute %d repeated", minute)
			default:
				arena = append(arena, trace.PricePoint{Minute: minute, Price: market.Money(price)})
				continue
			}
			if err := report.Violation(mode, reason, "colbin: pool %s point %d: %s", key, i, detail); err != nil {
				return nil, nil, err
			}
		}
		if gp.off != hi {
			return nil, nil, fmt.Errorf("colbin: pool %s: %d trailing bytes in column group", key, hi-gp.off)
		}
		// Capped, so an append to one pool's Points cannot write into the
		// next pool's.
		pools = append(pools, &trace.Trace{Zone: e.zone, Type: typ, Start: start, End: end,
			Points: arena[first:len(arena):len(arena)]})
	}
	set, err := trace.Assemble(base, start, end, pools, mode, report)
	if err != nil {
		return nil, nil, fmt.Errorf("colbin: %w", err)
	}
	return &File{set: set}, report, nil
}
