package market

import (
	"errors"
	"fmt"
	"math"
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

// TestPoolCapacityUnitsTable: the table PoolCapacityUnits reads holds
// round(UnitsPerNode·√(v/v₀ · m/m₀)) for every (type, base) pair of the
// catalog, through bare and typed pool keys alike; unknown types give
// CapacityUnits' errors, as before the table; and a lookup allocates
// nothing.
func TestPoolCapacityUnitsTable(t *testing.T) {
	for _, it := range Types() {
		for _, base := range Types() {
			s, _ := Shape(it)
			b, _ := Shape(base)
			want := int(math.Round(UnitsPerNode * math.Sqrt(float64(s.VCPU)/float64(b.VCPU)*(s.MemGiB/b.MemGiB))))
			if it == base {
				want = UnitsPerNode
			}
			key := PoolKey("us-east-1a", it, base)
			if got, err := PoolCapacityUnits(key, base); err != nil || got != want {
				t.Errorf("PoolCapacityUnits(%q, %s) = %d, %v; want %d", key, base, got, err, want)
			}
		}
	}
	for _, c := range []struct {
		key  string
		base InstanceType
	}{
		{"us-east-1a/t1.micro", M1Small},
		{"us-east-1a/m1.small", "t1.micro"},
		{"us-east-1a/t1.micro", "z9.huge"},
		{"us-east-1a", "t1.micro"},
		{"nowhere-1z/c3.large", M1Small},
		{"", R3Large},
	} {
		_, it := ParsePool(c.key, c.base)
		wantU, wantErr := CapacityUnits(it, c.base)
		u, err := PoolCapacityUnits(c.key, c.base)
		if u != wantU || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("PoolCapacityUnits(%q, %s) = %d, %v; want %d, %v", c.key, c.base, u, err, wantU, wantErr)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := PoolCapacityUnits("us-east-1a/r3.large", M1Small); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("PoolCapacityUnits allocates %v times per call, want 0", allocs)
	}
}

// TestParseTypeAndZone: the element parsers of the -types and -zones
// flags accept the catalog's names and reject every other one.
func TestParseTypeAndZone(t *testing.T) {
	if it, err := ParseType("c3.large"); it != C3Large || err != nil {
		t.Errorf("ParseType(c3.large) = %q, %v", it, err)
	}
	if _, err := ParseType("z9.huge"); err == nil || err.Error() != `market: unknown instance type "z9.huge"` {
		t.Errorf("ParseType(z9.huge): %v", err)
	}
	if z, err := ParseZone("us-west-2b"); z != "us-west-2b" || err != nil {
		t.Errorf("ParseZone(us-west-2b) = %q, %v", z, err)
	}
	if _, err := ParseZone("us-east-1z"); err == nil || err.Error() != `market: unknown availability zone "us-east-1z"` {
		t.Errorf("ParseZone(us-east-1z): %v", err)
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
