package smc

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

func TestModelJSONRoundTrip(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 77, Type: market.M1Small,
		Zones: []string{"us-east-1a"}, Start: 0, End: 8 * 7 * 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := set.ByZone["us-east-1a"]
	e := NewEstimator(0)
	e.Observe(tr)
	orig, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical state space and kernel.
	op, lp := orig.Prices(), loaded.Prices()
	if len(op) != len(lp) {
		t.Fatalf("state counts differ: %d vs %d", len(op), len(lp))
	}
	for i := range op {
		if op[i] != lp[i] {
			t.Fatalf("price %d differs", i)
		}
	}
	for _, si := range op {
		for _, sj := range op {
			for k := int64(1); k < 200; k++ {
				if a, b := kernelProb(orig, si, sj, k), kernelProb(loaded, si, sj, k); a != b {
					t.Fatalf("kernel(%v,%v,%d): %v vs %v", si, sj, k, a, b)
				}
			}
		}
	}
	// Forecasts agree.
	cur := tr.PriceAt(tr.End - 1)
	fa, err := orig.Forecast(cur, 3, 120)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := loaded.Forecast(cur, 3, 120)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range op {
		if a, b := fa.OutOfBidFraction(p), fb.OutOfBidFraction(p); math.Abs(a-b) > 1e-12 {
			t.Fatalf("forecast differs at %v: %v vs %v", p, a, b)
		}
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	cases := []string{
		"{nope",
		`{"max_sojourn":0,"prices_micro_usd":[1],"out_counts":[0]}`,
		`{"max_sojourn":10,"prices_micro_usd":[],"out_counts":[]}`,
		`{"max_sojourn":10,"prices_micro_usd":[5,3],"out_counts":[0,0]}`, // not ascending
		`{"max_sojourn":10,"prices_micro_usd":[1,2],"out_counts":[1]}`,   // length mismatch
		`{"max_sojourn":10,"prices_micro_usd":[1,2],"out_counts":[1,0],"kernel":[{"from":5,"to":0,"sojourn":1,"count":1}]}`,
		`{"max_sojourn":10,"prices_micro_usd":[1,2],"out_counts":[2,0],"kernel":[{"from":0,"to":1,"sojourn":1,"count":1}]}`, // mass mismatch
	}
	for i, c := range cases {
		if _, err := ReadModel(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestReadModelRejectsDuplicateCells: two cells for one (from, to,
// sojourn) pass the mass check, and used to overwrite each other in the
// sojourn tables — destination probabilities summing to 0.6. The reader
// refuses them, naming the repeat.
func TestReadModelRejectsDuplicateCells(t *testing.T) {
	const in = `{"max_sojourn":10,"prices_micro_usd":[1,2],"out_counts":[5,0],"kernel":[` +
		`{"from":0,"to":1,"sojourn":3,"count":2},{"from":0,"to":1,"sojourn":3,"count":3}]}`
	_, err := ReadModel(strings.NewReader(in))
	if err == nil {
		t.Fatal("duplicate kernel cell accepted")
	}
	if !strings.Contains(err.Error(), "kernel cell 1 ") {
		t.Fatalf("error %q does not name cell 1", err)
	}
}

// TestReadModelCanonicalisesCellOrder: whatever order the cells arrive
// in, the loaded model is the written one — it serializes back to the
// same bytes and forecasts to the same bits.
func TestReadModelCanonicalisesCellOrder(t *testing.T) {
	orig, tr := fastTestModel(t, 77, 8)
	var canon bytes.Buffer
	if err := orig.WriteJSON(&canon); err != nil {
		t.Fatal(err)
	}
	var jm jsonModel
	if err := json.Unmarshal(canon.Bytes(), &jm); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cur := tr.PriceAt(tr.End - 1)
	for round := 0; round < 3; round++ {
		if round > 0 {
			rng.Shuffle(len(jm.Kernel), func(a, b int) { jm.Kernel[a], jm.Kernel[b] = jm.Kernel[b], jm.Kernel[a] })
		}
		in, err := json.Marshal(jm)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadModel(bytes.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := loaded.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), canon.Bytes()) {
			t.Fatalf("round %d: reading and writing back changed the bytes", round)
		}
		for _, age := range []int64{1, 40, 2000} {
			want, err := orig.Forecast(cur, age, 120)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Forecast(cur, age, 120)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got.avgOcc, want.avgOcc) {
				t.Fatalf("round %d age %d: loaded model forecasts %v, original %v", round, age, got.avgOcc, want.avgOcc)
			}
		}
	}
}
