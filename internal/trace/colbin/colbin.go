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
	"math/bits"

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

// Encode serializes the set into the colbin layout. Its pools' column
// groups are sized, then written, in parallel (trace.Parallel), each
// straight into its place in the stream, which is allocated once at its
// final length.
func Encode(s *trace.Set) []byte {
	keys := s.Zones()
	sizes, offs := make([]int, len(keys)), make([]int, len(keys))
	trace.Parallel(len(keys), func(indices <-chan int) {
		for i := range indices {
			sizes[i] = groupLen(s.ByZone[keys[i]], s.Start)
		}
	})

	head := make([]byte, 0, 64+len(keys)*32)
	head = append(head, Magic...)
	head = append(head, Version)
	head = appendString(head, string(s.Type))
	head = binary.AppendVarint(head, s.Start)
	head = binary.AppendVarint(head, s.End)
	head = binary.AppendUvarint(head, uint64(len(keys)))
	off := 0
	for i, key := range keys {
		t := s.ByZone[key]
		typ := string(t.Type)
		if t.Type == s.Type {
			typ = ""
		}
		head = appendString(head, t.Zone)
		head = appendString(head, typ)
		head = binary.AppendUvarint(head, uint64(len(t.Points)))
		head = binary.AppendUvarint(head, uint64(off))
		head = binary.AppendUvarint(head, uint64(sizes[i]))
		offs[i], off = off, off+sizes[i]
	}

	out := append(head, make([]byte, off)...)
	cols := out[len(head):]
	trace.Parallel(len(keys), func(indices <-chan int) {
		for i := range indices {
			putGroup(cols[offs[i]:offs[i]+sizes[i]], s.ByZone[keys[i]], s.Start)
		}
	})
	return out
}

// groupLen is the length of the column group putGroup writes.
func groupLen(t *trace.Trace, start int64) int {
	n, prev, prevPrice := 0, start, int64(0)
	for i, p := range t.Points {
		d := uint64(p.Minute - prev)
		if i == 0 {
			d = zigzag(p.Minute - prev)
		}
		n += uvarintLen(d) + uvarintLen(zigzag(int64(p.Price)-prevPrice))
		prev, prevPrice = p.Minute, int64(p.Price)
	}
	return n
}

// putGroup writes a pool's column group, its minute column and then
// its price column, into dst, which is exactly groupLen long.
func putGroup(dst []byte, t *trace.Trace, start int64) {
	n, prev := 0, start
	for i, p := range t.Points {
		if i == 0 {
			n += binary.PutVarint(dst[n:], p.Minute-prev)
		} else {
			n += binary.PutUvarint(dst[n:], uint64(p.Minute-prev))
		}
		prev = p.Minute
	}
	var prevPrice int64
	for _, p := range t.Points {
		n += binary.PutVarint(dst[n:], int64(p.Price)-prevPrice)
		prevPrice = int64(p.Price)
	}
}

// zigzag maps a signed value to the unsigned one binary.PutVarint
// writes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// uvarintLen is the number of bytes binary.PutUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

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
