package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/market"
)

// FuzzReadCSV pins two properties of the CSV reader under arbitrary
// input: it never panics, and the two modes stay coherent — whatever
// Strict accepts, Lenient accepts identically with an empty quarantine
// report. It reads with a non-empty type list, the typed path every
// pool market takes, and the seed corpus covers the interesting shapes
// by hand: a valid generated typed trace, truncated rows, NaN and
// non-positive prices, out-of-order and duplicate minutes, a dangling
// quote, emptiness, the three-column layout and rows of the other
// layout's width.
func FuzzReadCSV(f *testing.F) {
	s, err := Generate(GenConfig{
		Seed: 9, Type: market.M1Small,
		Zones: []string{"us-east-1a", "eu-west-1b"},
		Types: []market.InstanceType{market.C3Large},
		Start: 0, End: 6 * 60,
	})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := s.WriteCSV(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	f.Add(csvHeader)
	f.Add(csvHeader + "us-east-1a,m1.small,0,0.01\nus-east-1a,m1.small,5\n")
	f.Add(csvHeader + "us-east-1a,m1.small,0,NaN\n")
	f.Add(csvHeader + "us-east-1a,m1.small,0,-1e300\n")
	f.Add(csvHeader + "us-east-1a,m1.small,10,0.01\nus-east-1a,m1.small,5,0.01\n")
	f.Add(csvHeader + "us-east-1a,m1.small,0,0.01\nus-east-1a,m1.small,0,0.01\n")
	f.Add(csvHeader + `"unclosed quote`)
	f.Add("")
	f.Add("zone,minute,price_usd\nus-east-1a,0,0.01\nus-east-1a,10,0.012\n")
	f.Add("zone,minute,price_usd\nus-east-1a,0,0.01\nus-east-1a,c3.large,10,0.012\n")
	f.Add(csvHeader + "us-east-1a,c3.large,0,0.1\nus-east-1a,r3.large,0,0.1\nus-east-1a,0,0.01\n")
	types := []market.InstanceType{market.C3Large}
	f.Fuzz(func(t *testing.T, input string) {
		strictSet, _, strictErr := ReadCSVPoolsMode(strings.NewReader(input), market.M1Small, types, 0, 6*60, Strict)
		lenSet, rep, lenErr := ReadCSVPoolsMode(strings.NewReader(input), market.M1Small, types, 0, 6*60, Lenient)
		if strictErr == nil {
			if strictSet == nil {
				t.Fatal("strict success returned a nil set")
			}
			if lenErr != nil {
				t.Fatalf("strict accepted what lenient rejected: %v", lenErr)
			}
			if rep.Quarantined != 0 {
				t.Fatalf("strictly-clean input quarantined %d rows: %+v", rep.Quarantined, rep.Reasons)
			}
			setsEqual(t, strictSet, lenSet)
		}
		if lenErr == nil && lenSet == nil {
			t.Fatal("lenient success returned a nil set")
		}
	})
}
