package colbin

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/market"
	"repro/internal/trace"
)

// maxNameLen bounds a zone or type name before its bytes are read.
const maxNameLen = 256

// File is a decoded colbin stream: a holder for the trace.Set that
// Decode built.
type File struct{ set *trace.Set }

// Set returns the decoded set. Decode filled it; nothing is copied or
// checked here, and every pool's points share one arena allocation.
func (f *File) Set() *trace.Set { return f.set }

// decoder walks the raw bytes with bounds-checked varint reads.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("colbin: corrupt %s at offset %d", what, d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint(what string) (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("colbin: corrupt %s at offset %d", what, d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) str(what string) (string, error) {
	n, err := d.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > maxNameLen {
		return "", fmt.Errorf("colbin: %s length %d exceeds %d", what, n, maxNameLen)
	}
	if d.off+int(n) > len(d.data) {
		return "", fmt.Errorf("colbin: truncated %s at offset %d", what, d.off)
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// advance adds delta to *sum and reports true, unless the result would
// leave int64: then *sum is untouched and it reports false.
func advance(sum *int64, delta int64) bool {
	s := *sum + delta
	if (s > *sum) != (delta > 0) {
		return false
	}
	*sum = s
	return true
}

// minuteColumnEnd returns the offset just past the n-th varint
// terminator (a byte below 0x80) in data[lo:hi] — where a group's price
// column starts — or false if the group holds fewer than n. It counts
// them eight bytes at a time, popcount(^w & 0x80…80), while a word
// holds fewer than are still needed, then finishes byte by byte.
func minuteColumnEnd(data []byte, lo, hi, n int) (int, bool) {
	i := lo
	for ; n > 0 && i+8 <= hi; i += 8 {
		c := bits.OnesCount64(^binary.LittleEndian.Uint64(data[i:]) & 0x8080808080808080)
		if c >= n {
			break
		}
		n -= c
	}
	for ; n > 0; i++ {
		if i >= hi {
			return 0, false
		}
		if data[i] < 0x80 {
			n--
		}
	}
	return i, true
}

// decodeGroup walks one pool's column group data[lo:hi], n points from
// minute start, and returns arena extended by the points that pass;
// key, mode and report place and judge each per-point violation.
//
// The price column starts past the n-th minute varint, so the two
// columns are walked in step and each point is checked and stored once.
// An inner loop without calls takes the common point: a one- or
// two-byte minute delta above zero, a one- to three-byte price delta,
// no overflow and a positive price. Any other point — the first, one
// that follows a running price at or below zero, a longer or malformed
// varint, a price varint in the group's last two bytes, a violation —
// is left to the general step after it, which reads through a decoder
// (whose errors name the offset) and judges the point. The inner loop
// so accepts only what the general step would, and every error and
// quarantine comes from the general step.
func decodeGroup(data []byte, lo, hi, n int, start int64, key string, mode trace.ReadMode, report *trace.ReadReport, arena []trace.PricePoint) ([]trace.PricePoint, error) {
	priceLo, ok := minuteColumnEnd(data, lo, hi, n)
	if !ok {
		return nil, fmt.Errorf("colbin: pool %s: truncated minute column", key)
	}
	// The arena's capacity covers every declared point, so this pool's
	// n fit past its length.
	out := arena[len(arena) : len(arena)+n]
	kept := 0
	mo, po := lo, priceLo
	minute, price := start, int64(0)
	for i := 0; i < n; i++ {
		// The running price is positive on entry and after every point
		// the loop keeps, and a delta of at most three bytes is under
		// 2²⁰ in size, so a sum that leaves int64 can only wrap past
		// the top: np <= 0 catches it. A minute delta is not negative,
		// so nm <= minute is a zero delta — which might repeat the last
		// kept minute — or one that leaves int64; the general step
		// decides both.
		if i > 0 && price > 0 {
			for ; i < n && po+3 <= hi; i++ {
				// priceLo is past the n-th terminator, so a minute varint
				// that starts before it also ends before it.
				b := data[mo]
				dm, mw := int64(b), 1
				if b >= 0x80 {
					if data[mo+1] >= 0x80 {
						break
					}
					dm, mw = int64(b&0x7f)|int64(data[mo+1])<<7, 2
				}
				u, pw := uint64(data[po]), 1
				if u >= 0x80 {
					if data[po+1] < 0x80 {
						u, pw = u&0x7f|uint64(data[po+1])<<7, 2
					} else if data[po+2] < 0x80 {
						u, pw = u&0x7f|uint64(data[po+1]&0x7f)<<7|uint64(data[po+2])<<14, 3
					} else {
						break
					}
				}
				nm, np := minute+dm, price+(int64(u>>1)^-int64(u&1))
				if nm <= minute || np <= 0 {
					break
				}
				out[kept] = trace.PricePoint{Minute: nm, Price: market.Money(np)}
				kept++
				minute, price, mo, po = nm, np, mo+mw, po+pw
			}
		}
		if i == n {
			break
		}
		gm := decoder{data: data[:priceLo], off: mo}
		var dm int64
		var err error
		okMinute := true
		if i == 0 {
			dm, err = gm.varint("minute")
		} else {
			var ud uint64
			ud, err = gm.uvarint("minute delta")
			dm, okMinute = int64(ud), ud <= math.MaxInt64
		}
		if err != nil {
			return nil, fmt.Errorf("colbin: pool %s: %w", key, err)
		}
		mo = gm.off
		gp := decoder{data: data[:hi], off: po}
		dp, err := gp.varint("price delta")
		if err != nil {
			return nil, fmt.Errorf("colbin: pool %s: %w", key, err)
		}
		po = gp.off
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
		case kept > 0 && minute == out[kept-1].Minute:
			// Deltas are unsigned and checked, so the running minute
			// never falls: a repeat is the only order violation left.
			reason, detail = trace.ReasonDuplicateMinute, fmt.Sprintf("minute %d repeated", minute)
		default:
			out[kept] = trace.PricePoint{Minute: minute, Price: market.Money(price)}
			kept++
			continue
		}
		if err := report.Violation(mode, reason, "colbin: pool %s point %d: %s", key, i, detail); err != nil {
			return nil, err
		}
	}
	if po != hi {
		return nil, fmt.Errorf("colbin: pool %s: %d trailing bytes in column group", key, hi-po)
	}
	return arena[:len(arena)+kept], nil
}

// Decode parses a colbin stream into the trace.Set it describes.
// Structural corruption — bad magic, truncated varints, a directory
// that declares more points than the input has bytes for or points
// outside the column section — is an error in both modes. Per-point
// violations (non-positive price, duplicate minute, a delta or running
// sum that leaves int64) and per-pool violations (unknown type, and
// whatever trace.Assembler rejects: duplicate pool, first point off the
// span start, last point beyond its end) follow the Strict/Lenient
// contract of trace.ReadCSVPoolsMode: Strict fails on the first one
// naming the pool and point, Lenient quarantines the point or drops the
// pool and counts it in the ReadReport.
func Decode(data []byte, mode trace.ReadMode) (*File, *trace.ReadReport, error) {
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
	// Each pool is assembled — validated — right after it is decoded,
	// while its points are still in cache.
	asm := trace.NewAssembler(base, start, end, mode, report)
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

		first := len(arena)
		if arena, err = decodeGroup(data, lo, hi, e.n, start, key, mode, report, arena); err != nil {
			return nil, nil, err
		}
		// Capped, so an append to one pool's Points cannot write into the
		// next pool's.
		asm.Add(&trace.Trace{Zone: e.zone, Type: typ, Start: start, End: end,
			Points: arena[first:len(arena):len(arena)]})
	}
	set, err := asm.Set()
	if err != nil {
		return nil, nil, fmt.Errorf("colbin: %w", err)
	}
	return &File{set: set}, report, nil
}
