package market

import (
	"fmt"
	"sort"
	"sync"
)

// Region is an EC2 geographic region with its isolated availability zones
// (paper Table 1).
type Region struct {
	Name     string   // e.g. "us-east-1"
	Location string   // e.g. "Virginia"
	Zones    []string // e.g. ["us-east-1a", ...]
}

// InstanceType identifies an EC2 virtual machine type.
type InstanceType string

// Instance types used in the paper's evaluation.
const (
	M1Small InstanceType = "m1.small" // lock-service experiments
	M3Large InstanceType = "m3.large" // storage-service experiments
)

// regionSpec describes one Table 1 row plus the per-instance-type
// on-demand price for zones in that region. The paper reports m1.small
// on-demand at $0.044–0.061/h and m3.large at $0.14–0.201/h depending on
// region; the assignment below spreads regions over those ranges the way
// EC2 did in 2014 (US cheapest, São Paulo most expensive).
type regionSpec struct {
	name      string
	location  string
	zoneCount int
	odM1Small Money
	odM3Large Money
}

var regionSpecs = []regionSpec{
	{"us-east-1", "Virginia", 4, FromDollars(0.044), FromDollars(0.140)},
	{"us-west-2", "Oregon", 3, FromDollars(0.044), FromDollars(0.140)},
	{"us-west-1", "California", 3, FromDollars(0.047), FromDollars(0.154)},
	{"eu-west-1", "Ireland", 3, FromDollars(0.047), FromDollars(0.154)},
	{"eu-central-1", "Frankfurt", 2, FromDollars(0.050), FromDollars(0.158)},
	{"ap-southeast-1", "Singapore", 2, FromDollars(0.058), FromDollars(0.196)},
	{"ap-northeast-1", "Tokyo", 3, FromDollars(0.061), FromDollars(0.193)},
	{"ap-southeast-2", "Sydney", 2, FromDollars(0.058), FromDollars(0.186)},
	{"sa-east-1", "Sao Paulo", 2, FromDollars(0.061), FromDollars(0.201)},
}

// catalog is the expanded, immutable form of regionSpecs, built once:
// the Decide hot path resolves zone -> on-demand price on every
// forecast, so lookups must not re-derive zone names (each Regions()
// rebuild cost dozens of fmt.Sprintf allocations per Decide).
var catalog struct {
	once      sync.Once
	regions   []Region                 // template; Zones slices are never handed out directly
	allZones  []string                 // sorted; never handed out directly
	zoneIndex map[string]int           // zone -> index into regionSpecs/regions
	odPrice   map[InstanceType][]Money // instance type -> price per regionSpecs index
}

func initCatalog() {
	catalog.once.Do(func() {
		catalog.zoneIndex = make(map[string]int)
		catalog.odPrice = map[InstanceType][]Money{M1Small: nil, M3Large: nil}
		for ri, rs := range regionSpecs {
			r := Region{Name: rs.name, Location: rs.location}
			for i := 0; i < rs.zoneCount; i++ {
				z := fmt.Sprintf("%s%c", rs.name, 'a'+i)
				r.Zones = append(r.Zones, z)
				catalog.zoneIndex[z] = ri
				catalog.allZones = append(catalog.allZones, z)
			}
			catalog.regions = append(catalog.regions, r)
			catalog.odPrice[M1Small] = append(catalog.odPrice[M1Small], rs.odM1Small)
			catalog.odPrice[M3Large] = append(catalog.odPrice[M3Large], rs.odM3Large)
			// Derived columns for the extra pool types (pool.go): exact
			// integer ratios of the regional m1.small price, so the paper
			// types' columns above stay byte-identical to Table 1.
			for _, ts := range typeSpecs {
				if ts.odDen == 0 {
					continue
				}
				catalog.odPrice[ts.shape.Type] = append(catalog.odPrice[ts.shape.Type], rs.odM1Small.MulFrac(ts.odNum, ts.odDen))
			}
		}
		sort.Strings(catalog.allZones)
	})
}

// Regions returns the Table 1 catalog: nine regions, 24 availability
// zones in total. The result is a fresh copy the caller may mutate.
func Regions() []Region {
	initCatalog()
	out := make([]Region, len(catalog.regions))
	for i, r := range catalog.regions {
		out[i] = Region{
			Name:     r.Name,
			Location: r.Location,
			Zones:    append([]string(nil), r.Zones...),
		}
	}
	return out
}

// AllZones returns every availability zone name in the catalog, sorted.
// The result is a fresh copy the caller may mutate.
func AllZones() []string {
	initCatalog()
	return append([]string(nil), catalog.allZones...)
}

// ExperimentZones returns the 17 availability zones the paper's
// evaluation ran over (§5.2). The subset drops the later zones of the
// largest regions, which had the sparsest price histories in 2014.
func ExperimentZones() []string {
	drop := map[string]bool{
		"us-east-1d":      true,
		"us-west-1c":      true,
		"eu-west-1c":      true,
		"ap-northeast-1c": true,
		"us-west-2c":      true,
		"eu-central-1b":   true,
		"sa-east-1b":      true,
	}
	var zones []string
	for _, z := range AllZones() {
		if !drop[z] {
			zones = append(zones, z)
		}
	}
	return zones
}

// RegionOfZone returns the region a zone belongs to, or an error for an
// unknown zone name. The result is a fresh copy the caller may mutate.
func RegionOfZone(zone string) (Region, error) {
	initCatalog()
	ri, ok := catalog.zoneIndex[zone]
	if !ok {
		return Region{}, fmt.Errorf("market: unknown availability zone %q", zone)
	}
	r := catalog.regions[ri]
	return Region{
		Name:     r.Name,
		Location: r.Location,
		Zones:    append([]string(nil), r.Zones...),
	}, nil
}

// ParseZone returns zone, or an error when the catalog holds no such
// availability zone.
func ParseZone(zone string) (string, error) {
	_, err := RegionOfZone(zone)
	return zone, err
}

// OnDemandPrice returns the hourly on-demand price for the instance type
// in the given zone. Prices are uniform within a region, as on EC2.
// Allocation-free: this sits on the bidding framework's per-zone
// decision path.
func OnDemandPrice(zone string, it InstanceType) (Money, error) {
	initCatalog()
	ri, ok := catalog.zoneIndex[zone]
	if !ok {
		return 0, fmt.Errorf("market: unknown availability zone %q", zone)
	}
	prices, ok := catalog.odPrice[it]
	if !ok {
		return 0, fmt.Errorf("market: unknown instance type %q", it)
	}
	return prices[ri], nil
}

// OnDemandFailureProbability is the per-time-unit failure probability of
// an on-demand instance implied by the EC2 SLA (99% availability), used
// as FP' throughout the paper.
const OnDemandFailureProbability = 0.01
