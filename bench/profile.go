package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// A minimal reader of the pprof wire format (gzip-compressed protobuf,
// github.com/google/pprof/proto/profile.proto), enough to fold a
// profile's flat samples by the package of the leaf function. Field
// numbers used:
//
//	Profile:  sample = 2, location = 4, function = 5, string_table = 6
//	Sample:   location_id = 1, value = 2
//	Location: id = 1, line = 4
//	Line:     function_id = 1
//	Function: id = 1, name = 2

var errProto = errors.New("bench: malformed profile")

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num  int
	val  uint64
	data []byte
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// pbEach calls fn for every field of a message.
func pbEach(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return err
		}
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.val, rest, err = pbVarint(rest); err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errProto
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = pbVarint(rest); err != nil || n > uint64(len(rest)) {
				return errProto
			}
			f.data, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errProto
			}
			rest = rest[4:]
		default:
			return errProto
		}
		b = rest
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.data == nil {
		return append(dst, f.val), nil
	}
	for b := f.data; len(b) > 0; {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// foldProfile sums value number valueIndex of every sample under the
// package path of the sample's leaf function.
func foldProfile(gz []byte, valueIndex int) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples    []sample
		locFunc    = map[uint64]uint64{} // location id → leaf function id
		funcName   = map[uint64]uint64{} // function id → string index
		table      []string
		locs, vals []uint64
	)
	err = pbEach(raw, func(f pbField) error {
		switch f.num {
		case 2: // sample
			locs, vals = locs[:0], vals[:0]
			if err := pbEach(f.data, func(sf pbField) (err error) {
				switch sf.num {
				case 1:
					locs, err = pbUints(sf, locs)
				case 2:
					vals, err = pbUints(sf, vals)
				}
				return err
			}); err != nil {
				return err
			}
			if len(locs) > 0 && valueIndex < len(vals) {
				samples = append(samples, sample{locs[0], int64(vals[valueIndex])})
			}
		case 4: // location
			var id, fn uint64
			seen := false
			if err := pbEach(f.data, func(lf pbField) error {
				switch lf.num {
				case 1:
					id = lf.val
				case 4:
					// line[0] is the innermost (inlined) frame: the leaf.
					if !seen {
						seen = true
						return pbEach(lf.data, func(ln pbField) error {
							if ln.num == 1 {
								fn = ln.val
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function
			var id, name uint64
			if err := pbEach(f.data, func(ff pbField) error {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			table = append(table, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(table)) {
			name = table[i]
		}
		out[packageOf(name)] += s.value
	}
	return out, nil
}

// packageOf is the import path of a symbol as the Go linker names it:
// "repro/internal/smc.(*Model).Forecast" → "repro/internal/smc".
func packageOf(symbol string) string {
	// Type arguments and receivers may hold slashes and dots of their
	// own; the package path ends before either starts.
	if i := strings.IndexAny(symbol, "[("); i >= 0 {
		symbol = symbol[:i]
	}
	slash := strings.LastIndexByte(symbol, '/')
	if dot := strings.IndexByte(symbol[slash+1:], '.'); dot >= 0 {
		return symbol[:slash+1+dot]
	}
	return symbol
}

// layerOf maps an import path to the layer name the metrics use: the
// package name under internal/, "go.runtime" for the Go runtime (GC,
// malloc, scheduler), "" for anything else.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		return rest[strings.LastIndexByte(rest, '/')+1:]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "go.runtime"
	}
	return ""
}

// layerShares turns a folded profile, less an earlier one of the same
// kind, into each layer's share of the total.
func layerShares(byPkg, minus map[string]int64) map[string]float64 {
	var total int64
	byLayer := map[string]int64{}
	for pkg, v := range byPkg {
		v -= minus[pkg]
		total += v
		byLayer[layerOf(pkg)] += v
	}
	shares := map[string]float64{}
	if total > 0 {
		for l, v := range byLayer {
			shares[l] = float64(v) / float64(total)
		}
	}
	return shares
}

// heapProfile is the cumulative allocation profile as of now.
func heapProfile() ([]byte, error) {
	runtime.GC() // the profile is complete only up to the last collection
	var buf bytes.Buffer
	err := pprof.Lookup("allocs").WriteTo(&buf, 0)
	return buf.Bytes(), err
}
