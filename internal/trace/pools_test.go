package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/market"
)

const poolWeek = 7 * 24 * 60

func poolGenConfig(types ...market.InstanceType) GenConfig {
	return GenConfig{
		Seed:  2014,
		Type:  market.M1Small,
		Zones: []string{"us-east-1a", "us-west-2b"},
		Start: 0,
		End:   poolWeek,
		Types: types,
	}
}

// TestGenerateMultiTypeDeterministic pins the correlated multi-type
// generator: same config, same bytes; and the base type's column is
// byte-identical with and without extra types.
func TestGenerateMultiTypeDeterministic(t *testing.T) {
	a, err := Generate(poolGenConfig(market.M1Medium, market.C3Large))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(poolGenConfig(market.M1Medium, market.C3Large))
	if err != nil {
		t.Fatal(err)
	}
	var abuf, bbuf bytes.Buffer
	if err := a.WriteCSV(&abuf); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSV(&bbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(abuf.Bytes(), bbuf.Bytes()) {
		t.Fatal("two generations of the same multi-type config differ")
	}

	base, err := Generate(poolGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, zone := range base.Zones() {
		want, got := base.ByZone[zone], a.ByZone[zone]
		if got == nil {
			t.Fatalf("zone %s missing from multi-type set", zone)
		}
		if len(want.Points) != len(got.Points) {
			t.Fatalf("zone %s: base column %d points with types, %d without", zone, len(got.Points), len(want.Points))
		}
		for i := range want.Points {
			if want.Points[i] != got.Points[i] {
				t.Fatalf("zone %s point %d: %v with types, %v without — base column not byte-identical", zone, i, got.Points[i], want.Points[i])
			}
		}
	}
}

// TestGenerateMultiTypeCorrelated checks the shared-demand-shock
// construction: sibling columns change price at exactly the base
// column's change minutes, and zone spikes hit every type at once.
func TestGenerateMultiTypeCorrelated(t *testing.T) {
	set, err := Generate(poolGenConfig(market.C3Large))
	if err != nil {
		t.Fatal(err)
	}
	for _, zone := range poolGenConfig().Zones {
		baseTr := set.ByZone[zone]
		sibKey := market.PoolKey(zone, market.C3Large, market.M1Small)
		sibTr := set.ByZone[sibKey]
		if sibTr == nil {
			t.Fatalf("pool %s missing", sibKey)
		}
		if sibTr.Zone != zone || sibTr.Type != market.C3Large {
			t.Fatalf("pool %s trace labeled %s/%s", sibKey, sibTr.Zone, sibTr.Type)
		}
		if len(sibTr.Points) != len(baseTr.Points) {
			t.Fatalf("pool %s: %d points, base %d — walks not shared", sibKey, len(sibTr.Points), len(baseTr.Points))
		}
		baseModel, err := ZoneModelFor(zone, market.M1Small, 2014)
		if err != nil {
			t.Fatal(err)
		}
		sibModel, err := ZoneModelFor(zone, market.C3Large, 2014)
		if err != nil {
			t.Fatal(err)
		}
		baseSpike := baseModel.Levels[len(baseModel.Levels)-1]
		sibSpike := sibModel.Levels[len(sibModel.Levels)-1]
		for i := range baseTr.Points {
			if sibTr.Points[i].Minute != baseTr.Points[i].Minute {
				t.Fatalf("pool %s point %d at minute %d, base at %d", sibKey, i, sibTr.Points[i].Minute, baseTr.Points[i].Minute)
			}
			if (baseTr.Points[i].Price == baseSpike) != (sibTr.Points[i].Price == sibSpike) {
				t.Fatalf("pool %s point %d: spike state differs from base (shared shock broken)", sibKey, i)
			}
		}
	}
}

// TestCSVPoolsRoundTrip writes a multi-type set and reads it back via
// the pool reader.
func TestCSVPoolsRoundTrip(t *testing.T) {
	set, err := Generate(poolGenConfig(market.M1Medium))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVPools(bytes.NewReader(buf.Bytes()), market.M1Small, []market.InstanceType{market.M1Medium}, 0, poolWeek)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != set.Fingerprint() {
		t.Fatal("pool CSV round trip changed the set fingerprint")
	}
	// A single-type read is the same reader with no extra types: the
	// typed rows are a type mismatch to it.
	if _, err := ReadCSVPools(bytes.NewReader(buf.Bytes()), market.M1Small, nil, 0, poolWeek); err == nil {
		t.Fatal("pool read accepted a type outside the requested set")
	}
}

// TestCSVPoolsOptionalTypeColumn accepts the 3-field layout, mapping
// rows to the base type.
func TestCSVPoolsOptionalTypeColumn(t *testing.T) {
	csv := "zone,minute,price_usd\nus-east-1a,0,0.01\nus-east-1a,10,0.012\n"
	set, err := ReadCSVPools(strings.NewReader(csv), market.M1Small, nil, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	tr := set.ByZone["us-east-1a"]
	if tr == nil || tr.Type != market.M1Small || len(tr.Points) != 2 {
		t.Fatalf("3-field read = %+v", tr)
	}
}

// TestAddPoolDuplicate pins AddPool's duplicate rejection.
func TestAddPoolDuplicate(t *testing.T) {
	set := NewSet(market.M1Small, 0, 10)
	tr := &Trace{Zone: "us-east-1a", Type: market.C3Large, Start: 0, End: 10,
		Points: []PricePoint{{Minute: 0, Price: 100}}}
	if err := set.AddPool(tr); err != nil {
		t.Fatal(err)
	}
	if err := set.AddPool(tr); err == nil || !strings.Contains(err.Error(), "duplicate pool") {
		t.Fatalf("duplicate AddPool error = %v", err)
	}
}
