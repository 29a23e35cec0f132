package market

import (
	"cmp"
	"fmt"
	"math"
	"strings"
)

// A pool is one (availability zone, instance type) capacity source: it
// has its own spot price trace, its own forecast model, and its own bid.
// Pools are identified by string keys so the whole zone-keyed pipeline
// (trace sets, market views, model-cache keys, telemetry events) carries
// them unchanged:
//
//	"us-east-1a"           — the zone's pool of the service's base type
//	"us-east-1a/c3.large"  — the zone's pool of another type
//
// The base type of a configuration is keyed by the bare zone name, so a
// single-type deployment produces exactly the pool keys, trace bytes,
// and event streams it produced before pools existed. Zone and type
// names never contain '/'.

// Additional 2014-era instance types beyond the paper's two. On-demand
// prices are uniform within a region, derived from the region's m1.small
// price by the integer ratios EC2's 2014 price sheet roughly followed
// (m1.medium 2×, m3.medium 8/5×, c3.large 12/5×, r3.large 4×).
const (
	M1Medium InstanceType = "m1.medium"
	M3Medium InstanceType = "m3.medium"
	C3Large  InstanceType = "c3.large"
	R3Large  InstanceType = "r3.large"
)

// TypeShape is one row of the instance-type table: the capacity of a
// type in vCPUs and memory, from which pool capacity weights are
// normalized.
type TypeShape struct {
	Type   InstanceType
	VCPU   int
	MemGiB float64
}

// typeSpec extends TypeShape with how the type's regional on-demand
// price column is derived: paper types carry their own Table 1 columns;
// the extra types scale the regional m1.small price by odNum/odDen.
type typeSpec struct {
	shape        TypeShape
	odNum, odDen int64 // zero den: price column set directly in initCatalog
}

var typeSpecs = []typeSpec{
	{shape: TypeShape{M1Small, 1, 1.7}},
	{shape: TypeShape{M3Large, 2, 7.5}},
	{shape: TypeShape{M1Medium, 1, 3.75}, odNum: 2, odDen: 1},
	{shape: TypeShape{M3Medium, 1, 3.75}, odNum: 8, odDen: 5},
	{shape: TypeShape{C3Large, 2, 3.75}, odNum: 12, odDen: 5},
	{shape: TypeShape{R3Large, 2, 15.25}, odNum: 4, odDen: 1},
}

// Shape returns the capacity shape of an instance type, or an error for
// a type outside the catalog.
func Shape(it InstanceType) (TypeShape, error) {
	if i, ok := typeIndex(it); ok {
		return typeSpecs[i].shape, nil
	}
	return TypeShape{}, fmt.Errorf("market: unknown instance type %q", it)
}

// typeIndex returns the catalog row of an instance type.
func typeIndex(it InstanceType) (int, bool) {
	for i, ts := range typeSpecs {
		if ts.shape.Type == it {
			return i, true
		}
	}
	return 0, false
}

// UnitsPerNode is the integer capacity-unit quantum: a node of the
// service's base type counts as exactly UnitsPerNode units, and every
// other type's weight is rounded to whole units. Quorum arithmetic runs
// over units, which keeps the weighted threshold rule exactly equal to
// the node-count rule whenever all pools are the base type (see
// DESIGN.md §2.2).
const UnitsPerNode = 16

// CapacityWeight returns the capacity of an instance type relative to
// the base type: the geometric mean of its vCPU and memory ratios,
// sqrt((v/v₀)·(m/m₀)). The geometric mean keeps a type that doubles
// only one dimension from counting as two base nodes.
func CapacityWeight(it, base InstanceType) (float64, error) {
	s, err := Shape(it)
	if err != nil {
		return 0, err
	}
	b, err := Shape(base)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(float64(s.VCPU) / float64(b.VCPU) * (s.MemGiB / b.MemGiB)), nil
}

// CapacityUnits returns the integer capacity units of an instance type
// relative to the base type: round(UnitsPerNode·weight), at least 1.
// The base type itself is exactly UnitsPerNode.
func CapacityUnits(it, base InstanceType) (int, error) {
	if it == base {
		return UnitsPerNode, nil
	}
	w, err := CapacityWeight(it, base)
	if err != nil {
		return 0, err
	}
	u := int(math.Round(UnitsPerNode * w))
	if u < 1 {
		u = 1
	}
	return u, nil
}

// PoolKey formats the pool identifier for (zone, it) under the given
// base type: the bare zone for the base type, "zone/type" otherwise.
func PoolKey(zone string, it, base InstanceType) string {
	if it == base {
		return zone
	}
	return zone + "/" + string(it)
}

// ParsePool splits a pool key into its zone and instance type; a bare
// zone key maps to the base type. Allocation-free.
func ParsePool(key string, base InstanceType) (zone string, it InstanceType) {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i], InstanceType(key[i+1:])
	}
	return key, base
}

// PoolZone returns the availability zone of a pool key. Allocation-free.
func PoolZone(key string) string {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i]
	}
	return key
}

// PoolOnDemandPrice returns the hourly on-demand price of a pool: the
// pool's own type in the pool's zone. Bare zone keys price the base
// type, so the call is exactly OnDemandPrice for single-type
// configurations. Allocation-free: this sits on the per-pool decision
// path.
func PoolOnDemandPrice(key string, base InstanceType) (Money, error) {
	zone, it := ParsePool(key, base)
	return OnDemandPrice(zone, it)
}

// PoolMaxBid returns the EC2 bid cap for a pool: four times the pool's
// own on-demand price (§2.1).
func PoolMaxBid(key string, base InstanceType) (Money, error) {
	od, err := PoolOnDemandPrice(key, base)
	if err != nil {
		return 0, err
	}
	return od * 4, nil
}

// unitsTable[i][j] is CapacityUnits(typeSpecs[i], typeSpecs[j]): every
// pool weight the catalog defines, worked out once at package
// initialization, so the per-pool decision path reads it with no lock.
var unitsTable = func() [][]int {
	t := make([][]int, len(typeSpecs))
	for i, it := range typeSpecs {
		t[i] = make([]int, len(typeSpecs))
		for j, base := range typeSpecs {
			u, err := CapacityUnits(it.shape.Type, base.shape.Type)
			if err != nil {
				panic(err) // both types come from the catalog
			}
			t[i][j] = u
		}
	}
	return t
}()

// PoolCapacityUnits returns the integer capacity units of a pool
// relative to the base type, CapacityUnits read from the catalog's
// table. Allocation-free.
func PoolCapacityUnits(key string, base InstanceType) (int, error) {
	_, it := ParsePool(key, base)
	if it == base {
		return UnitsPerNode, nil
	}
	i, ok := typeIndex(it)
	j, okBase := typeIndex(base)
	if !ok || !okBase {
		return CapacityUnits(it, base) // the unknown type's error
	}
	return unitsTable[i][j], nil
}

// ComparePerUnit orders (price, units) pairs by price per capacity
// unit without division: price_a/units_a against price_b/units_b
// cross-multiplied to stay in exact integers.
func ComparePerUnit(pa Money, ua int, pb Money, ub int) int {
	return cmp.Compare(int64(pa)*int64(ub), int64(pb)*int64(ua))
}

// ShapeSatisfies reports whether the instance type meets a minimum
// shape of minVCPU vCPUs and minMemGiB GiB (zero means unconstrained).
// Unknown types never satisfy.
func ShapeSatisfies(it InstanceType, minVCPU int, minMemGiB float64) bool {
	s, err := Shape(it)
	if err != nil {
		return false
	}
	return s.VCPU >= minVCPU && s.MemGiB >= minMemGiB
}

// FilterPools returns the pool keys of a base-type market whose
// instance type meets the minimum shape, preserving order. A shape
// that rejects every key is an error naming it and the base type.
func FilterPools(keys []string, base InstanceType, minVCPU int, minMemGiB float64) ([]string, error) {
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		_, it := ParsePool(k, base)
		if ShapeSatisfies(it, minVCPU, minMemGiB) {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("market: no pool of the %s market offers %d vCPU / %g GiB (all %d rejected)", base, minVCPU, minMemGiB, len(keys))
	}
	return out, nil
}

// ParseType returns the cataloged instance type named s, or the error
// Shape gives for a type outside the catalog.
func ParseType(s string) (InstanceType, error) {
	it := InstanceType(s)
	_, err := Shape(it)
	return it, err
}
