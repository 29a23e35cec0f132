package market

import (
	"errors"
	"strings"
	"testing"
)

func TestPoolKeyRoundTrip(t *testing.T) {
	cases := []struct {
		zone string
		it   InstanceType
		base InstanceType
		key  string
	}{
		{"us-east-1a", M1Small, M1Small, "us-east-1a"},
		{"us-east-1a", C3Large, M1Small, "us-east-1a/c3.large"},
		{"sa-east-1b", R3Large, M3Large, "sa-east-1b/r3.large"},
		{"eu-west-1c", M3Large, M3Large, "eu-west-1c"},
	}
	for _, c := range cases {
		key := PoolKey(c.zone, c.it, c.base)
		if key != c.key {
			t.Errorf("PoolKey(%s, %s, %s) = %q, want %q", c.zone, c.it, c.base, key, c.key)
		}
		zone, it := ParsePool(key, c.base)
		if zone != c.zone || it != c.it {
			t.Errorf("ParsePool(%q, %s) = (%s, %s), want (%s, %s)", key, c.base, zone, it, c.zone, c.it)
		}
		if got := PoolZone(key); got != c.zone {
			t.Errorf("PoolZone(%q) = %q, want %q", key, got, c.zone)
		}
	}
}

func TestCapacityUnits(t *testing.T) {
	// Base type is always exactly UnitsPerNode, for any base.
	for _, it := range Types() {
		u, err := CapacityUnits(it, it)
		if err != nil || u != UnitsPerNode {
			t.Errorf("CapacityUnits(%s, %s) = %d, %v; want %d", it, it, u, err, UnitsPerNode)
		}
	}
	// Spot checks against the geometric-mean formula, base m1.small.
	want := map[InstanceType]int{
		M1Small:  16,
		M1Medium: 24, // sqrt(3.75/1.7) ≈ 1.485
		M3Medium: 24,
		C3Large:  34, // sqrt(2·3.75/1.7) ≈ 2.10
		M3Large:  48, // sqrt(2·7.5/1.7) ≈ 2.97
		R3Large:  68, // sqrt(2·15.25/1.7) ≈ 4.24
	}
	for it, w := range want {
		u, err := CapacityUnits(it, M1Small)
		if err != nil {
			t.Fatalf("CapacityUnits(%s): %v", it, err)
		}
		if u != w {
			t.Errorf("CapacityUnits(%s, m1.small) = %d, want %d", it, u, w)
		}
	}
	if _, err := CapacityUnits("t1.micro", M1Small); err == nil {
		t.Error("CapacityUnits(unknown type) should fail")
	}
}

func TestDerivedOnDemandPrices(t *testing.T) {
	// Extra types price at exact integer ratios of the regional
	// m1.small price; the paper types' columns are untouched.
	ratios := map[InstanceType][2]int64{
		M1Medium: {2, 1},
		M3Medium: {8, 5},
		C3Large:  {12, 5},
		R3Large:  {4, 1},
	}
	for _, zone := range AllZones() {
		small, err := OnDemandPrice(zone, M1Small)
		if err != nil {
			t.Fatal(err)
		}
		for it, r := range ratios {
			od, err := OnDemandPrice(zone, it)
			if err != nil {
				t.Fatalf("OnDemandPrice(%s, %s): %v", zone, it, err)
			}
			if want := small.MulFrac(r[0], r[1]); od != want {
				t.Errorf("OnDemandPrice(%s, %s) = %v, want %v", zone, it, od, want)
			}
			pod, err := PoolOnDemandPrice(PoolKey(zone, it, M1Small), M1Small)
			if err != nil || pod != od {
				t.Errorf("PoolOnDemandPrice(%s/%s) = %v, %v; want %v", zone, it, pod, err, od)
			}
		}
	}
	// us-east-1a sanity: m1.small $0.044 → m1.medium $0.088.
	od, err := OnDemandPrice("us-east-1a", M1Medium)
	if err != nil || od != FromDollars(0.088) {
		t.Errorf("us-east-1a m1.medium = %v, %v; want $0.088", od, err)
	}
}

func TestFilterPools(t *testing.T) {
	keys := []string{"us-east-1a", "us-east-1a/c3.large", "us-east-1b/r3.large"}
	// min 2 vCPU drops the m1.small base pool.
	got, err := FilterPools(keys, M1Small, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "us-east-1a/c3.large" || got[1] != "us-east-1b/r3.large" {
		t.Fatalf("FilterPools(min 2 vCPU) = %v", got)
	}
	// min 8 GiB keeps only r3.large.
	got, err = FilterPools(keys, M1Small, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "us-east-1b/r3.large" {
		t.Fatalf("FilterPools(min 8 GiB) = %v", got)
	}
	// An unsatisfiable constraint surfaces the typed error.
	if _, err := FilterPools(keys, M1Small, 64, 0); !errors.Is(err, ErrNoFeasiblePools) {
		t.Fatalf("FilterPools(min 64 vCPU) error = %v, want ErrNoFeasiblePools", err)
	}
}

func TestParseTypes(t *testing.T) {
	got, err := ParseTypes(" m1.medium, c3.large ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != M1Medium || got[1] != C3Large {
		t.Fatalf("ParseTypes = %v", got)
	}
	if got, err := ParseTypes(""); err != nil || len(got) != 0 {
		t.Fatalf("ParseTypes(\"\") = %v, %v", got, err)
	}
	if _, err := ParseTypes("m1.medium,z9.huge"); err == nil || !strings.Contains(err.Error(), "entry 2") {
		t.Fatalf("unknown type error = %v, want entry 2 named", err)
	}
	if _, err := ParseTypes("c3.large,c3.large"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate type error = %v", err)
	}
}

// Types returns every instance type in the catalog, in table order
// (paper types first).
func Types() []InstanceType {
	out := make([]InstanceType, len(typeSpecs))
	for i, ts := range typeSpecs {
		out[i] = ts.shape.Type
	}
	return out
}
