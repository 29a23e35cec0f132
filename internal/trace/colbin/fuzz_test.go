package colbin

import (
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// FuzzReadColbin is the binary-reader analogue of FuzzReadCSV: no
// panics on arbitrary bytes; in both modes Decode returns what the
// reference decoder returns — the same pools, ReadReport and error
// text; and mode coherence — whenever Strict decodes successfully,
// Lenient must decode the identical set with nothing quarantined.
func FuzzReadColbin(f *testing.F) {
	set, err := trace.Generate(trace.GenConfig{
		Seed:  7,
		Type:  market.M1Small,
		Zones: []string{"us-east-1a", "eu-west-1a"},
		Start: 0,
		End:   3 * 24 * 60,
		Types: []market.InstanceType{market.C3Large},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(Encode(set))
	f.Add([]byte(Magic))
	f.Add(append([]byte(Magic), Version))
	f.Add(handBuild("m1.small", 0, 100, []handPool{{
		zone: "us-east-1a", minutes: []int64{0, 30, 30}, prices: []int64{1000, -2, 3000},
	}}))
	f.Add(handBuild("m1.small", 0, 100, []handPool{
		{zone: "us-east-1a", minutes: []int64{0}, prices: []int64{1000}},
		{zone: "us-east-1a", typ: "z9.mega", minutes: []int64{5}, prices: []int64{-1}},
	}))
	f.Add([]byte("XXXXnot a colbin stream"))
	// PR 19's two panics: a point count that wraps the size guard, and an
	// unsigned minute delta that is negative as an int64.
	f.Add(handBuild("m1.small", 0, 100, []handPool{{
		zone: "us-east-1a", minutes: []int64{0}, prices: []int64{1000}, declare: 1 << 63,
	}}))
	f.Add(handBuild("m1.small", 0, 100, []handPool{{
		zone: "us-east-1a", minutes: []int64{0, 30, 20}, prices: []int64{1000, 2000, 3000},
	}}))

	f.Add(mutationBlob())

	f.Fuzz(func(t *testing.T, data []byte) {
		checkReference(t, data, trace.Strict)
		checkReference(t, data, trace.Lenient)
		strictFile, strictRep, strictErr := Decode(data, trace.Strict)
		lenFile, lenRep, lenErr := Decode(data, trace.Lenient)

		if strictErr != nil {
			return // lenient may or may not recover; both outcomes are fine
		}
		if strictFile == nil {
			t.Fatal("strict success returned nil file")
		}
		if strictRep.Quarantined != 0 {
			t.Fatalf("strict decode quarantined %d rows", strictRep.Quarantined)
		}
		if lenErr != nil {
			t.Fatalf("strict succeeded but lenient failed: %v", lenErr)
		}
		if lenRep.Quarantined != 0 {
			t.Fatalf("strict succeeded but lenient quarantined %d (%v)", lenRep.Quarantined, lenRep.Reasons)
		}
		s, l := strictFile.Set(), lenFile.Set()
		if s.Fingerprint() != l.Fingerprint() {
			t.Fatal("strict and lenient decoded different sets")
		}
		// The materialized set must satisfy every Trace invariant.
		for _, key := range s.Zones() {
			if err := s.ByZone[key].Validate(); err != nil {
				t.Fatalf("decoded pool %s invalid: %v", key, err)
			}
		}
		// Round trip: re-encoding the decoded set reproduces it.
		f2, _, err := Decode(Encode(s), trace.Strict)
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if f2.Set().Fingerprint() != s.Fingerprint() {
			t.Fatal("re-encode changed the set")
		}
	})
}
