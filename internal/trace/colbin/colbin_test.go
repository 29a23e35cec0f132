package colbin

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

func genSet(t *testing.T) *trace.Set {
	t.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed:  2014,
		Type:  market.M1Small,
		Zones: []string{"us-east-1a", "us-east-1b", "eu-west-1a", "ap-northeast-1a"},
		Start: 0,
		End:   14 * 24 * 60,
		Types: []market.InstanceType{market.C3Large, market.R3Large},
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return set
}

// TestRoundTrip pins the CSV→colbin→CSV property: encoding a set and
// decoding it back yields the same fingerprint, the same pool keys, and
// byte-identical canonical CSV.
func TestRoundTrip(t *testing.T) {
	set := genSet(t)
	data := Encode(set)

	f, rep, err := Decode(data, trace.Strict)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.Quarantined != 0 {
		t.Fatalf("strict decode quarantined %d rows", rep.Quarantined)
	}
	got := f.Set()
	if got.Fingerprint() != set.Fingerprint() {
		t.Fatalf("fingerprint mismatch after round trip")
	}

	var orig, back bytes.Buffer
	if err := set.WriteCSV(&orig); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteCSV(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), back.Bytes()) {
		t.Fatalf("canonical CSV differs after colbin round trip")
	}

	// And from CSV: parse the canonical CSV, encode, decode — same set.
	parsed, err := trace.ReadCSVPools(bytes.NewReader(orig.Bytes()), set.Type,
		[]market.InstanceType{market.C3Large, market.R3Large}, set.Start, set.End)
	if err != nil {
		t.Fatalf("re-parse CSV: %v", err)
	}
	f2, _, err := Decode(Encode(parsed), trace.Strict)
	if err != nil {
		t.Fatalf("decode re-encoded: %v", err)
	}
	if f2.Set().Fingerprint() != set.Fingerprint() {
		t.Fatalf("fingerprint mismatch after CSV→colbin→set")
	}
}

// TestReadAnyDetectsFormats is the cross-format differential: a
// zone-only and a typed generated set, as CSV bytes and as colbin bytes,
// through ReadAny in both modes, must all come back as the original —
// same fingerprint, same points, nothing quarantined — and CSV → colbin
// → CSV must reproduce the CSV byte for byte.
func TestReadAnyDetectsFormats(t *testing.T) {
	zoneOnly, err := trace.Generate(trace.GenConfig{
		Seed: 2014, Type: market.M1Small, Zones: []string{"us-east-1a", "eu-west-1a"}, Start: 0, End: 14 * 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		set   *trace.Set
		types []market.InstanceType
	}{
		"zone-only": {zoneOnly, nil},
		"typed":     {genSet(t), []market.InstanceType{market.C3Large, market.R3Large}},
	} {
		set := tc.set
		var csvBuf bytes.Buffer
		if err := set.WriteCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		for format, data := range map[string][]byte{"colbin": Encode(set), "csv": csvBuf.Bytes()} {
			for _, mode := range []trace.ReadMode{trace.Strict, trace.Lenient} {
				got, rep, err := ReadAny(bytes.NewReader(data), set.Type, tc.types, set.Start, set.End, mode)
				if err != nil {
					t.Fatalf("%s %s mode %d: %v", name, format, mode, err)
				}
				if rep.Quarantined != 0 {
					t.Fatalf("%s %s mode %d: quarantined %d", name, format, mode, rep.Quarantined)
				}
				if got.Fingerprint() != set.Fingerprint() {
					t.Fatalf("%s %s mode %d: fingerprint mismatch", name, format, mode)
				}
				for key, want := range set.ByZone {
					tr := got.ByZone[key]
					if tr == nil || tr.Zone != want.Zone || tr.Type != want.Type || !slices.Equal(tr.Points, want.Points) {
						t.Fatalf("%s %s mode %d: pool %s differs", name, format, mode, key)
					}
				}
			}
		}
		fromCSV, _, err := ReadAny(bytes.NewReader(csvBuf.Bytes()), set.Type, tc.types, set.Start, set.End, trace.Strict)
		if err != nil {
			t.Fatal(err)
		}
		viaColbin, _, err := ReadAny(bytes.NewReader(Encode(fromCSV)), "", nil, 0, 0, trace.Strict)
		if err != nil {
			t.Fatal(err)
		}
		var back bytes.Buffer
		if err := viaColbin.WriteCSV(&back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), csvBuf.Bytes()) {
			t.Fatalf("%s: CSV → colbin → CSV is not byte-identical", name)
		}
	}
}

// handBuild assembles colbin bytes directly so tests can express
// streams the encoder would never produce.
type handPool struct {
	zone, typ string
	minutes   []int64
	prices    []int64
	declare   uint64 // directory point count when it should lie; 0 = len(minutes)
}

func handBuild(base string, start, end int64, pools []handPool) []byte {
	out := []byte(Magic)
	out = append(out, Version)
	out = appendString(out, base)
	out = binary.AppendVarint(out, start)
	out = binary.AppendVarint(out, end)
	out = binary.AppendUvarint(out, uint64(len(pools)))
	var groups [][]byte
	for _, p := range pools {
		var g []byte
		prev := start
		for i, m := range p.minutes {
			if i == 0 {
				g = binary.AppendVarint(g, m-prev)
			} else {
				g = binary.AppendUvarint(g, uint64(m-prev))
			}
			prev = m
		}
		var prevPrice int64
		for _, pr := range p.prices {
			g = binary.AppendVarint(g, pr-prevPrice)
			prevPrice = pr
		}
		groups = append(groups, g)
	}
	off := 0
	for i, p := range pools {
		out = appendString(out, p.zone)
		out = appendString(out, p.typ)
		n := uint64(len(p.minutes))
		if p.declare != 0 {
			n = p.declare
		}
		out = binary.AppendUvarint(out, n)
		out = binary.AppendUvarint(out, uint64(off))
		out = binary.AppendUvarint(out, uint64(len(groups[i])))
		off += len(groups[i])
	}
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// TestHandBuildMatchesEncoder pins the byte layout: a hand-assembled
// valid stream is byte-identical to Encode's output.
func TestHandBuildMatchesEncoder(t *testing.T) {
	set := trace.NewSet(market.M1Small, 0, 100)
	tr := &trace.Trace{Zone: "us-east-1a", Type: market.M1Small, Start: 0, End: 100,
		Points: []trace.PricePoint{{Minute: 0, Price: 44000}, {Minute: 30, Price: 51000}, {Minute: 80, Price: 46000}}}
	if err := set.AddPool(tr); err != nil {
		t.Fatal(err)
	}
	hand := handBuild("m1.small", 0, 100, []handPool{{
		zone: "us-east-1a", minutes: []int64{0, 30, 80}, prices: []int64{44000, 51000, 46000},
	}})
	if !bytes.Equal(hand, Encode(set)) {
		t.Fatalf("hand-built bytes differ from encoder output")
	}
}

func TestDecodeMalformed(t *testing.T) {
	valid := func() []byte {
		return handBuild("m1.small", 0, 100, []handPool{{
			zone: "us-east-1a", minutes: []int64{0, 30}, prices: []int64{44000, 51000},
		}})
	}
	cases := map[string]struct {
		data       []byte
		wantErr    string // strict error substring; "" = strict succeeds
		hardErr    bool   // lenient fails too
		quarantine string // lenient reason expected when !hardErr and wantErr != ""
	}{
		"bad magic": {
			data: append([]byte("XXXX"), valid()[4:]...), wantErr: "bad magic", hardErr: true,
		},
		"bad version": {
			data: func() []byte { d := valid(); d[4] = 9; return d }(), wantErr: "unsupported version", hardErr: true,
		},
		"truncated": {
			data: valid()[:12], wantErr: "truncated", hardErr: true,
		},
		"unknown base type": {
			data:    handBuild("z9.mega", 0, 100, []handPool{{zone: "a", minutes: []int64{0}, prices: []int64{1}}}),
			wantErr: "base type", hardErr: true,
		},
		"duplicate minute": {
			data: handBuild("m1.small", 0, 100, []handPool{{
				zone: "us-east-1a", minutes: []int64{0, 30, 30, 60}, prices: []int64{1000, 2000, 3000, 4000},
			}}),
			wantErr: "repeated", quarantine: trace.ReasonDuplicateMinute,
		},
		"non-positive price": {
			data: handBuild("m1.small", 0, 100, []handPool{{
				zone: "us-east-1a", minutes: []int64{0, 30}, prices: []int64{1000, -5},
			}}),
			wantErr: "not positive", quarantine: trace.ReasonNonPositivePrice,
		},
		"unknown pool type": {
			data: handBuild("m1.small", 0, 100, []handPool{
				{zone: "us-east-1a", minutes: []int64{0}, prices: []int64{1000}},
				{zone: "us-east-1b", typ: "z9.mega", minutes: []int64{0}, prices: []int64{1000}},
			}),
			wantErr: "unknown instance type", quarantine: trace.ReasonTypeMismatch,
		},
		"first point after start": {
			data: handBuild("m1.small", 0, 100, []handPool{
				{zone: "us-east-1a", minutes: []int64{0}, prices: []int64{1000}},
				{zone: "us-east-1b", minutes: []int64{5}, prices: []int64{1000}},
			}),
			wantErr: "want start", quarantine: trace.ReasonZoneDropped,
		},
		"point beyond end": {
			data: handBuild("m1.small", 0, 100, []handPool{
				{zone: "us-east-1a", minutes: []int64{0}, prices: []int64{1000}},
				{zone: "us-east-1b", minutes: []int64{0, 100}, prices: []int64{1000, 2000}},
			}),
			wantErr: "beyond end", quarantine: trace.ReasonZoneDropped,
		},
		"duplicate pool": {
			data: handBuild("m1.small", 0, 100, []handPool{
				{zone: "us-east-1a", minutes: []int64{0}, prices: []int64{1000}},
				{zone: "us-east-1a", minutes: []int64{0}, prices: []int64{2000}},
			}),
			wantErr: "duplicate pool", quarantine: trace.ReasonZoneDropped,
		},
		"all pools invalid": {
			data: handBuild("m1.small", 0, 100, []handPool{
				{zone: "us-east-1a", minutes: []int64{5}, prices: []int64{1000}},
			}),
			wantErr: "want start", hardErr: true, // lenient drops the only pool → no usable zones
		},
		// The four rows below are PR 19's regressions. The first panicked
		// Decode (2⁶³ declared points doubled to 0, passed the size guard,
		// and make() took the 2⁶³); the second decoded "cleanly" to minutes
		// 0, 30, 20 — an unsigned delta of 2⁶⁴−10 is −10 once it is an
		// int64 — and panicked File.Set(), that is ReadAny.
		"declared points wrap the size guard": {
			data: handBuild("m1.small", 0, 100, []handPool{{
				zone: "us-east-1a", minutes: []int64{0}, prices: []int64{1000}, declare: 1 << 63,
			}}),
			wantErr: "declared points exceed input size", hardErr: true,
		},
		"minute delta of 2^64-10": {
			data: handBuild("m1.small", 0, 100, []handPool{{
				zone: "us-east-1a", minutes: []int64{0, 30, 20}, prices: []int64{1000, 2000, 3000},
			}}),
			wantErr: "pool us-east-1a point 2: minute delta leaves int64", quarantine: trace.ReasonOutOfOrder,
		},
		"running minute leaves int64": {
			data: handBuild("m1.small", 0, 100, []handPool{
				{zone: "us-east-1a", minutes: []int64{0}, prices: []int64{1000}},
				{zone: "us-east-1b", minutes: []int64{0, math.MaxInt64, math.MinInt64 + 4}, prices: []int64{1000, 2000, 3000}},
			}),
			wantErr: "pool us-east-1b point 2: minute delta leaves int64", quarantine: trace.ReasonOutOfOrder,
		},
		"running price leaves int64": {
			data: handBuild("m1.small", 0, 100, []handPool{{
				zone: "us-east-1a", minutes: []int64{0, 30, 60}, prices: []int64{1000, math.MaxInt64, math.MinInt64},
			}}),
			wantErr: "pool us-east-1a point 2: price delta leaves int64", quarantine: trace.ReasonBadPrice,
		},
		"valid": {data: valid()},
	}
	// Every row goes through both doors: Decode, and ReadAny as the
	// commands call it.
	doors := map[string]func([]byte, trace.ReadMode) (*trace.Set, *trace.ReadReport, error){
		"Decode": func(data []byte, mode trace.ReadMode) (*trace.Set, *trace.ReadReport, error) {
			f, rep, err := Decode(data, mode)
			if err != nil {
				return nil, nil, err
			}
			return f.Set(), rep, nil
		},
		"ReadAny": func(data []byte, mode trace.ReadMode) (*trace.Set, *trace.ReadReport, error) {
			return ReadAny(bytes.NewReader(data), market.M1Small, nil, 0, 100, mode)
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			for door, read := range doors {
				t.Run(door, func(t *testing.T) {
					wantErr := tc.wantErr
					if !IsColbin(tc.data) && door == "ReadAny" {
						wantErr = "trace: " // not colbin to the sniffer, so the CSV reader's to reject
					}
					_, _, err := read(tc.data, trace.Strict)
					if tc.wantErr == "" {
						if err != nil {
							t.Fatalf("strict: unexpected error %v", err)
						}
					} else if err == nil || !strings.Contains(err.Error(), wantErr) {
						t.Fatalf("strict: error %v, want substring %q", err, wantErr)
					}
					set, rep, err := read(tc.data, trace.Lenient)
					switch {
					case tc.hardErr:
						if err == nil {
							t.Fatalf("lenient: expected error, got pools %v", set.Zones())
						}
					case tc.quarantine != "":
						if err != nil {
							t.Fatalf("lenient: %v", err)
						}
						if rep.Reasons[tc.quarantine] == 0 {
							t.Fatalf("lenient: reasons %v, want %s counted", rep.Reasons, tc.quarantine)
						}
						for key, tr := range set.ByZone {
							if err := tr.Validate(); err != nil {
								t.Fatalf("lenient: kept pool %s invalid: %v", key, err)
							}
						}
					default:
						if err != nil || rep.Quarantined != 0 {
							t.Fatalf("lenient: err %v, quarantined %d", err, rep.Quarantined)
						}
					}
				})
			}
		})
	}
}

// TestLenientKeepsGoodPoints checks that quarantining a bad point keeps
// the surrounding good ones and the delta chain intact.
func TestLenientKeepsGoodPoints(t *testing.T) {
	data := handBuild("m1.small", 0, 100, []handPool{{
		zone: "us-east-1a", minutes: []int64{0, 20, 40, 60}, prices: []int64{1000, -7, 3000, 4000},
	}})
	f, rep, err := Decode(data, trace.Lenient)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reasons[trace.ReasonNonPositivePrice] != 1 {
		t.Fatalf("reasons %v", rep.Reasons)
	}
	got := f.Set().ByZone["us-east-1a"].Points
	want := []trace.PricePoint{{Minute: 0, Price: 1000}, {Minute: 40, Price: 3000}, {Minute: 60, Price: 4000}}
	if !slices.Equal(got, want) {
		t.Fatalf("kept %+v, want %+v", got, want)
	}
}

func TestEmptySpanRoundTrip(t *testing.T) {
	set := trace.NewSet(market.M1Small, 50, 50)
	if err := set.AddPool(&trace.Trace{Zone: "us-east-1a", Type: market.M1Small, Start: 50, End: 50}); err != nil {
		t.Fatal(err)
	}
	f, _, err := Decode(Encode(set), trace.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Set().Fingerprint(); got != set.Fingerprint() {
		t.Fatal("empty-span fingerprint mismatch")
	}
}

// mutationPools are the pools of mutationBlob. Between them they hold
// every per-point violation (duplicate minute, non-positive price, a
// minute and a price delta that leave int64), every per-pool one (an
// unknown type, a first point after the start, a last point at the end,
// a duplicate pool), and minute and price varints of 1, 2, 3, 4 and 10
// bytes; the long clean pool keeps Decode's inner loop busy.
func mutationPools() []handPool {
	long := handPool{zone: "sa-east-1a", typ: "c3.large"}
	minute, price := int64(0), int64(500000)
	steps := []int64{10, 200, 1, 30000, 5, 7}
	moves := []int64{3, -40000, 5000, -100, 1, 0}
	for i := 0; i < 12; i++ {
		long.minutes = append(long.minutes, minute)
		long.prices = append(long.prices, price)
		minute += steps[i%len(steps)]
		price += moves[i%len(moves)]
	}
	// Sums that leave int64 on one-byte deltas, where the inner loop
	// would otherwise take them: a price at i = 1, a minute at i = 3.
	over := handPool{zone: "us-west-1a"}
	minute, price = 0, math.MaxInt64-1
	for _, d := range [][2]int64{{0, 0}, {10, 5}, {math.MaxInt64 - 20, -7}, {20, -1}, {1, -1}, {1, -1}, {1, -1}} {
		minute, price = minute+d[0], price+d[1] // wrapping, so each encoded delta is d
		over.minutes = append(over.minutes, minute)
		over.prices = append(over.prices, price)
	}
	return []handPool{
		{zone: "us-east-1a", minutes: []int64{0, 1, 130, 20130, 3020130}, prices: []int64{44000, 44001, 44100, 1000000, 100000000}},
		{zone: "us-east-1b", minutes: []int64{0, 30, 30, 60, 20, 90, 120, 150},
			prices: []int64{1000, 2000, 3000, -5, 4000, 5000, math.MaxInt64, math.MinInt64}},
		long,
		over,
		{zone: "eu-west-1a", typ: "z9.mega", minutes: []int64{0}, prices: []int64{1000}},
		{zone: "us-east-1c", minutes: []int64{5}, prices: []int64{1000}},
		{zone: "ap-northeast-1a", typ: "c3.large", minutes: []int64{0, 10000000}, prices: []int64{1000, 2000}},
		{zone: "us-east-1a", minutes: []int64{0}, prices: []int64{7}},
	}
}

func mutationBlob() []byte { return handBuild("m1.small", 0, 10000000, mutationPools()) }

// TestDecodeMatchesReference feeds Decode and the reference decoder
// every single-byte mutation and every truncation of mutationBlob, in
// both modes: they must agree on each — the same pools, ReadReport and
// error text.
func TestDecodeMatchesReference(t *testing.T) {
	// The blob holds what its comment promises.
	widths := map[int]bool{}
	for _, p := range mutationPools() {
		for i := range p.minutes {
			if i > 0 {
				widths[len(binary.AppendUvarint(nil, uint64(p.minutes[i]-p.minutes[i-1])))] = true
			}
			d := p.prices[i]
			if i > 0 {
				d -= p.prices[i-1]
			}
			widths[len(binary.AppendVarint(nil, d))] = true
		}
	}
	for _, w := range []int{1, 2, 3, 4, 10} {
		if !widths[w] {
			t.Fatalf("no %d-byte varint in the blob (widths %v)", w, widths)
		}
	}
	blob := mutationBlob()
	_, rep, err := Decode(blob, trace.Lenient)
	if err != nil {
		t.Fatal(err)
	}
	for _, reason := range []string{trace.ReasonDuplicateMinute, trace.ReasonNonPositivePrice, trace.ReasonOutOfOrder,
		trace.ReasonBadPrice, trace.ReasonTypeMismatch, trace.ReasonZoneDropped} {
		if rep.Reasons[reason] == 0 {
			t.Fatalf("lenient decode counts no %s (reasons %v)", reason, rep.Reasons)
		}
	}

	data := make([]byte, len(blob))
	for _, mode := range []trace.ReadMode{trace.Strict, trace.Lenient} {
		for n := 0; n <= len(blob); n++ {
			checkReference(t, blob[:n], mode)
		}
		for i := range blob {
			for b := 0; b < 256; b++ {
				copy(data, blob)
				data[i] = byte(b)
				checkReference(t, data, mode)
			}
		}
	}
}

// benchMarket is the benchmark's 68-pool market (17 zones × 4 types)
// over the paper's 24 weeks.
func benchMarket(b *testing.B) *trace.Set {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 2014, Type: market.M1Small, Zones: market.ExperimentZones(), Start: 0, End: 24 * 7 * 24 * 60,
		Types: []market.InstanceType{market.M1Medium, market.C3Large, market.R3Large},
	})
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkDecode is the in-tree measure of the decoder, on benchMarket.
func BenchmarkDecode(b *testing.B) {
	data := Encode(benchMarket(b))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _, err := Decode(data, trace.Strict)
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Set().ByZone) != 68 {
			b.Fatalf("decoded %d pools, want 68", len(f.Set().ByZone))
		}
	}
}

// fingerprintSink keeps BenchmarkSetFingerprint's call from being
// optimized away.
var fingerprintSink uint64

// BenchmarkSetFingerprint measures Set.Fingerprint, the model-cache key
// a Jupiter replay computes, on the same market.
func BenchmarkSetFingerprint(b *testing.B) {
	set := benchMarket(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = set.Fingerprint()
	}
}
