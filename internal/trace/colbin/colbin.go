// Package colbin is the columnar binary trace format: a compact
// serialization of trace.Set for replays of large markets, where CSV
// parse time would dominate the run. It is also the door every command
// reads a trace file through (ReadAny).
//
// Layout (all integers varint-encoded, little-endian base-128):
//
//	offset  field
//	0       magic "CBT1" (4 bytes)
//	4       version (1 byte, currently 1)
//	5       base instance type   (uvarint length + bytes)
//	·       span start           (zigzag varint, minutes)
//	·       span end             (zigzag varint, minutes)
//	·       pool count P         (uvarint)
//	·       pool directory, P entries:
//	            zone             (uvarint length + bytes)
//	            type             (uvarint length + bytes; empty = base type)
//	            point count N    (uvarint)
//	            group offset     (uvarint, from start of column section)
//	            group length     (uvarint, bytes)
//	·       column section, P groups; each group is
//	            minute column: zigzag(minute[0] - start),
//	                           then N-1 × uvarint(minute[i] - minute[i-1])
//	            price column:  zigzag(price[0] micro-USD),
//	                           then N-1 × zigzag(price[i] - price[i-1])
//
// Prices are exact (micro-USD integers, no float round-trip); minute
// and price deltas are small in real traces, so the format is typically
// 4-6× smaller than the CSV and decodes over an order of magnitude
// faster.
//
// Decode (reader.go) finds each group's price column by counting the
// minute column's varint terminators eight bytes at a time, then walks
// the two columns in step, straight into the []trace.PricePoint of the
// trace.Set it returns; nothing is mapped and no columnar copy is kept.
// An inner loop without calls reads the common point — a one- or
// two-byte minute delta, a one- to three-byte price delta, nothing to
// quarantine — inline; every other point goes through the general
// step, which reads through decoder and owns every error and
// violation.
package colbin

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/market"
	"repro/internal/trace"
)

// Magic identifies a colbin stream; IsColbin sniffs it.
const Magic = "CBT1"

// Version is the current format version byte.
const Version = 1

// IsColbin reports whether the byte prefix looks like a colbin stream.
// Four bytes are enough; fewer can never match.
func IsColbin(prefix []byte) bool {
	return len(prefix) >= len(Magic) && string(prefix[:len(Magic)]) == Magic
}

// Encode serializes the set into the colbin layout.
func Encode(s *trace.Set) []byte {
	keys := s.Zones()
	type group struct {
		zone, typ string
		n         int
		data      []byte
	}
	groups := make([]group, 0, len(keys))
	var cols int
	for _, key := range keys {
		t := s.ByZone[key]
		g := group{zone: t.Zone, n: len(t.Points)}
		if t.Type != s.Type {
			g.typ = string(t.Type)
		}
		var buf []byte
		prev := s.Start
		for i, p := range t.Points {
			if i == 0 {
				buf = binary.AppendVarint(buf, p.Minute-prev)
			} else {
				buf = binary.AppendUvarint(buf, uint64(p.Minute-prev))
			}
			prev = p.Minute
		}
		var prevPrice int64
		for _, p := range t.Points {
			buf = binary.AppendVarint(buf, int64(p.Price)-prevPrice)
			prevPrice = int64(p.Price)
		}
		g.data = buf
		cols += len(buf)
		groups = append(groups, g)
	}

	out := make([]byte, 0, 64+len(keys)*32+cols)
	out = append(out, Magic...)
	out = append(out, Version)
	out = appendString(out, string(s.Type))
	out = binary.AppendVarint(out, s.Start)
	out = binary.AppendVarint(out, s.End)
	out = binary.AppendUvarint(out, uint64(len(groups)))
	off := 0
	for _, g := range groups {
		out = appendString(out, g.zone)
		out = appendString(out, g.typ)
		out = binary.AppendUvarint(out, uint64(g.n))
		out = binary.AppendUvarint(out, uint64(off))
		out = binary.AppendUvarint(out, uint64(len(g.data)))
		off += len(g.data)
	}
	for _, g := range groups {
		out = append(out, g.data...)
	}
	return out
}

// Write serializes the set to w in the colbin layout.
func Write(w io.Writer, s *trace.Set) error {
	_, err := w.Write(Encode(s))
	return err
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ReadAny reads a trace set in either supported format: colbin, sniffed
// by its magic bytes, and otherwise CSV. The base type, types, and span
// parameters apply only to CSV, which is not self-describing; colbin
// carries its own — callers that require a particular type or span must
// check the returned set.
func ReadAny(r io.Reader, base market.InstanceType, types []market.InstanceType, start, end int64, mode trace.ReadMode) (*trace.Set, *trace.ReadReport, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: reading input: %w", err)
	}
	if IsColbin(data) {
		f, rep, err := Decode(data, mode)
		if err != nil {
			return nil, nil, err
		}
		return f.Set(), rep, nil
	}
	return trace.ReadCSVPoolsMode(bytes.NewReader(data), base, types, start, end, mode)
}
