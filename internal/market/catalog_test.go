package market

import (
	"strings"
	"testing"
)

// TestTable1 pins the catalog to paper Table 1 exactly.
func TestTable1(t *testing.T) {
	want := map[string]struct {
		location string
		zones    int
	}{
		"us-east-1":      {"Virginia", 4},
		"us-west-2":      {"Oregon", 3},
		"us-west-1":      {"California", 3},
		"eu-west-1":      {"Ireland", 3},
		"eu-central-1":   {"Frankfurt", 2},
		"ap-southeast-1": {"Singapore", 2},
		"ap-northeast-1": {"Tokyo", 3},
		"ap-southeast-2": {"Sydney", 2},
		"sa-east-1":      {"Sao Paulo", 2},
	}
	regions := Regions()
	if len(regions) != len(want) {
		t.Fatalf("got %d regions, want %d", len(regions), len(want))
	}
	for _, r := range regions {
		w, ok := want[r.Name]
		if !ok {
			t.Errorf("unexpected region %q", r.Name)
			continue
		}
		if r.Location != w.location {
			t.Errorf("region %s location = %q, want %q", r.Name, r.Location, w.location)
		}
		if len(r.Zones) != w.zones {
			t.Errorf("region %s has %d zones, want %d", r.Name, len(r.Zones), w.zones)
		}
		for _, z := range r.Zones {
			if !strings.HasPrefix(z, r.Name) {
				t.Errorf("zone %q not prefixed by region %q", z, r.Name)
			}
		}
	}
}

func TestAllZonesCount(t *testing.T) {
	zones := AllZones()
	if len(zones) != 24 {
		t.Fatalf("got %d zones, want 24 (Table 1 total)", len(zones))
	}
	seen := map[string]bool{}
	for _, z := range zones {
		if seen[z] {
			t.Fatalf("duplicate zone %q", z)
		}
		seen[z] = true
	}
}

func TestExperimentZones(t *testing.T) {
	zones := ExperimentZones()
	if len(zones) != 17 {
		t.Fatalf("got %d experiment zones, want 17 (paper §5.2)", len(zones))
	}
	all := map[string]bool{}
	for _, z := range AllZones() {
		all[z] = true
	}
	for _, z := range zones {
		if !all[z] {
			t.Errorf("experiment zone %q not in catalog", z)
		}
	}
}

func TestRegionOfZone(t *testing.T) {
	r, err := RegionOfZone("us-east-1a")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "us-east-1" {
		t.Fatalf("RegionOfZone(us-east-1a) = %q", r.Name)
	}
	if _, err := RegionOfZone("mars-central-1a"); err == nil {
		t.Fatal("unknown zone did not error")
	}
}

// TestOnDemandPriceRanges verifies the paper's reported price ranges:
// m1.small $0.044–0.061, m3.large $0.14–0.201.
func TestOnDemandPriceRanges(t *testing.T) {
	loM1, hiM1 := FromDollars(0.044), FromDollars(0.061)
	loM3, hiM3 := FromDollars(0.14), FromDollars(0.201)
	var sawLoM1, sawHiM1, sawLoM3, sawHiM3 bool
	for _, z := range AllZones() {
		p1, err := OnDemandPrice(z, M1Small)
		if err != nil {
			t.Fatal(err)
		}
		if p1 < loM1 || p1 > hiM1 {
			t.Errorf("zone %s m1.small od price %v outside [%v, %v]", z, p1, loM1, hiM1)
		}
		sawLoM1 = sawLoM1 || p1 == loM1
		sawHiM1 = sawHiM1 || p1 == hiM1

		p3, err := OnDemandPrice(z, M3Large)
		if err != nil {
			t.Fatal(err)
		}
		if p3 < loM3 || p3 > hiM3 {
			t.Errorf("zone %s m3.large od price %v outside [%v, %v]", z, p3, loM3, hiM3)
		}
		sawLoM3 = sawLoM3 || p3 == loM3
		sawHiM3 = sawHiM3 || p3 == hiM3
	}
	if !sawLoM1 || !sawHiM1 || !sawLoM3 || !sawHiM3 {
		t.Error("on-demand prices do not span the paper's reported ranges")
	}
}

func TestOnDemandPriceUnknowns(t *testing.T) {
	if _, err := OnDemandPrice("nope-1a", M1Small); err == nil {
		t.Error("unknown zone accepted")
	}
	if _, err := OnDemandPrice("us-east-1a", InstanceType("t9.mega")); err == nil {
		t.Error("unknown type accepted")
	}
}
