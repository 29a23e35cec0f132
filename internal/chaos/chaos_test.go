package chaos

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/trace"
)

func testSet(t *testing.T, end int64) *trace.Set {
	t.Helper()
	s := trace.NewSet(market.M1Small, 0, end)
	tr := &trace.Trace{Zone: "us-east-1a", Type: market.M1Small, Start: 0, End: end,
		Points: []trace.PricePoint{
			{Minute: 0, Price: market.FromDollars(0.008)},
			{Minute: 300, Price: market.FromDollars(0.012)},
			{Minute: 600, Price: market.FromDollars(0.008)},
		}}
	if err := s.Add(tr); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValidateRejectsMalformedInjectors(t *testing.T) {
	cases := []Injector{
		{Kind: "volcano"},
		{Kind: ZoneBlackout, From: 10, Until: 20},                   // no zone
		{Kind: ZoneBlackout, Zone: "z", From: 20, Until: 20},        // empty window
		{Kind: ZoneBlackout, Zone: "z", From: -1, Until: 20},        // negative from
		{Kind: ReclaimStorm, Count: 0, From: 10},                    // no victims
		{Kind: ReclaimStorm, Count: 2, SpreadMinutes: -5, From: 10}, // negative spread
		{Kind: PriceSpike, Factor: 0, From: 0, Until: 10},           // zero factor
		{Kind: RequestDelay, DelayMinutes: 0, From: 0, Until: 10},   // zero delay
		{Kind: RequestLoss, Probability: 1.5, From: 0, Until: 10},   // probability > 1
		{Kind: TraceGap, From: 10, Until: 5},                        // inverted window
	}
	for i, inj := range cases {
		sc := Scenario{Name: "bad", Injectors: []Injector{inj}}
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d (%+v): validated, want error", i, inj)
		}
	}
	if err := (Scenario{Injectors: nil}).Validate(); err == nil {
		t.Error("nameless scenario validated, want error")
	}
}

func TestBuiltinsValidate(t *testing.T) {
	names := BuiltinNames()
	if len(names) < 5 {
		t.Fatalf("only %d builtin scenarios: %v", len(names), names)
	}
	for _, n := range names {
		sc, ok := Builtin(n)
		if !ok {
			t.Fatalf("Builtin(%q) missing", n)
		}
		if sc.Name != n {
			t.Errorf("builtin %q carries name %q", n, sc.Name)
		}
		if _, err := New(sc, 0, 1000); err != nil {
			t.Errorf("builtin %q: %v", n, err)
		}
	}
}

func TestLoadFileAndBuiltin(t *testing.T) {
	if sc, err := Load("calm"); err != nil || sc.Name != "calm" {
		t.Fatalf("Load(calm) = %v, %v", sc, err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	body := `{"name":"custom","seed":7,"injectors":[{"kind":"zone-blackout","zone":"us-east-1a","from":60,"until":120}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "custom" || sc.Seed != 7 || len(sc.Injectors) != 1 {
		t.Fatalf("loaded %+v", sc)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","injectorz":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestTransformTracesSpike(t *testing.T) {
	set := testSet(t, 24*60)
	sc := Scenario{Name: "s", Injectors: []Injector{
		{Kind: PriceSpike, Factor: 3, From: 100, Until: 400},
	}}
	e, err := New(sc, 0, 0) // start 0: windows are absolute here
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.TransformTraces(set)
	if err != nil {
		t.Fatal(err)
	}
	if out == set {
		t.Fatal("spike returned the input set")
	}
	tr := out.ByZone["us-east-1a"]
	base := set.ByZone["us-east-1a"]
	for _, m := range []int64{0, 99, 400, 700} {
		if got, want := tr.PriceAt(m), base.PriceAt(m); got != want {
			t.Errorf("minute %d outside window: %v, want %v", m, got, want)
		}
	}
	for _, m := range []int64{100, 299, 300, 399} {
		if got, want := tr.PriceAt(m), base.PriceAt(m).Scale(3); got != want {
			t.Errorf("minute %d inside window: %v, want %v", m, got, want)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("spiked trace invalid: %v", err)
	}

	// Zero injectors: the set passes through untouched.
	calm, _ := New(Scenario{Name: "calm"}, 0, 0)
	same, err := calm.TransformTraces(set)
	if err != nil || same != set {
		t.Fatalf("calm transform = %p (%v), want input %p", same, err, set)
	}
}

// spikedSurgeFingerprint pins the price-surge transform of a generated
// single-type market, recorded while TransformTraces still rebuilt the
// set with Set.Add: base-type traces key identically under AddPool, so
// single-type output must stay byte-identical. The value is
// Set.Fingerprint's word mix; a change to that hash re-records it, and
// only that.
const spikedSurgeFingerprint = uint64(0xdb89c0b0d3fbc58a)

func TestTransformTracesSingleTypeUnchanged(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 7, Type: market.M1Small, Zones: market.ExperimentZones(),
		Start: 0, End: 7 * 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	surge, ok := Builtin("price-surge")
	if !ok {
		t.Fatal("price-surge builtin missing")
	}
	e, err := New(surge, 0, 24*60)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.TransformTraces(set)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Zones(), set.Zones()) {
		t.Fatalf("transform changed the pool keys: %v, want %v", out.Zones(), set.Zones())
	}
	if got := out.Fingerprint(); got != spikedSurgeFingerprint {
		t.Fatalf("spiked single-type set fingerprints %#x, want %#x", got, spikedSurgeFingerprint)
	}
}

// TestTransformTracesTypedPools is the -types regression: sibling-type
// traces must survive the transform under their pool keys (Set.Add
// used to reject them outright), and a zone-scoped spike must hit every
// pool of that availability zone and no pool of any other.
func TestTransformTracesTypedPools(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 7, Type: market.M1Small, Types: []market.InstanceType{market.M1Medium},
		Zones: []string{"us-east-1a", "us-east-1b"},
		Start: 0, End: 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Name: "s", Injectors: []Injector{
		{Kind: PriceSpike, Zone: "us-east-1a", Factor: 3, From: 100, Until: 400},
	}}
	e, err := New(sc, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.TransformTraces(set)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Zones(), set.Zones()) {
		t.Fatalf("transform changed the pool keys: %v, want %v", out.Zones(), set.Zones())
	}
	for _, key := range set.Zones() {
		spiked := market.PoolZone(key) == "us-east-1a"
		for _, m := range []int64{99, 100, 399, 400} {
			want := set.ByZone[key].PriceAt(m)
			if spiked && m >= 100 && m < 400 {
				want = want.Scale(3)
			}
			if got := out.ByZone[key].PriceAt(m); got != want {
				t.Errorf("pool %s minute %d: %v, want %v", key, m, got, want)
			}
		}
	}
}

// TestStormDeterminism pins that the same scenario + seed reclaims the
// same victims at the same minutes, run after run, and emits the fault
// events that make the storm visible in traces.
func TestStormDeterminism(t *testing.T) {
	run := func() (terminated []string, faults []engine.Event) {
		p := cloud.NewProvider(testSet(t, 24*60), cloud.Config{Seed: 5})
		p.Subscribe(&engine.Hooks{Fault: func(e engine.Event) { faults = append(faults, e) }})
		var ids []cloud.InstanceID
		for i := 0; i < 6; i++ {
			id, err := p.RequestSpot("us-east-1a", market.M1Small, market.FromDollars(0.02))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		sc := Scenario{Name: "storm", Seed: 99, Injectors: []Injector{
			{Kind: ReclaimStorm, Count: 3, SpreadMinutes: 20, From: 50},
		}}
		e, err := New(sc, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		e.Arm(p)
		p.AdvanceTo(200)
		for _, id := range ids {
			inst, _ := p.Instance(id)
			if inst.State == cloud.Terminated {
				terminated = append(terminated, string(id)+"@"+string(rune('0'+inst.TerminatedAt/10)))
			}
		}
		return terminated, faults
	}
	t1, f1 := run()
	t2, _ := run()
	if len(t1) != 3 {
		t.Fatalf("storm reclaimed %d instances, want 3: %v", len(t1), t1)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("storm not deterministic: %v vs %v", t1, t2)
	}
	// One storm-level marker plus one marker per victim.
	if len(f1) != 4 {
		t.Fatalf("saw %d fault events, want 4: %+v", len(f1), f1)
	}
	if f1[0].Size != 3 || f1[0].Fault != ReclaimStorm {
		t.Fatalf("storm marker = %+v", f1[0])
	}
}

func TestGapStaleness(t *testing.T) {
	set := testSet(t, 24*60)
	p := cloud.NewProvider(set, cloud.Config{Seed: 1})
	sc := Scenario{Name: "gap", Injectors: []Injector{
		{Kind: TraceGap, From: 350, Until: 500},
	}}
	e, err := New(sc, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Arm(p)
	p.AdvanceTo(400)
	price, age, stale, err := e.StalePrice(p, "us-east-1a", 400)
	if err != nil || !stale {
		t.Fatalf("StalePrice = stale %v, err %v", stale, err)
	}
	// The feed froze at minute 350; the price there (set at 300) shows
	// with its inclusive age at 350 (51) plus the 50 gap minutes elapsed.
	if want := market.FromDollars(0.012); price != want {
		t.Fatalf("stale price %v, want %v", price, want)
	}
	if age != 101 {
		t.Fatalf("stale age %d, want 101", age)
	}
	if _, ok := e.GapAt("us-east-1a", 500); ok {
		t.Fatal("gap active at its exclusive end")
	}
	if e.FingerprintSalt() == 0 {
		t.Fatal("gap scenario salts nothing")
	}
	calm, _ := New(Scenario{Name: "calm"}, 0, 0)
	if calm.FingerprintSalt() != 0 {
		t.Fatal("calm scenario salts the fingerprint")
	}
}

// TestBlackoutEmitsWindowEvents pins the injected/cleared marker pair
// around a blackout window.
func TestBlackoutEmitsWindowEvents(t *testing.T) {
	p := cloud.NewProvider(testSet(t, 24*60), cloud.Config{Seed: 1})
	var faults []engine.Event
	p.Subscribe(&engine.Hooks{Fault: func(e engine.Event) { faults = append(faults, e) }})
	sc := Scenario{Name: "b", Injectors: []Injector{
		{Kind: ZoneBlackout, Zone: "us-east-1a", From: 100, Until: 200},
	}}
	e, err := New(sc, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Arm(p)
	p.AdvanceTo(300)
	if len(faults) != 2 {
		t.Fatalf("saw %d fault events, want 2: %+v", len(faults), faults)
	}
	if faults[0].Kind != engine.KindFaultInjected || faults[0].Minute != 100 || faults[0].Until != 200 {
		t.Fatalf("injected marker = %+v", faults[0])
	}
	if faults[1].Kind != engine.KindFaultCleared || faults[1].Minute != 200 {
		t.Fatalf("cleared marker = %+v", faults[1])
	}
	if _, err := p.RequestOnDemand("us-east-1a", market.M1Small); err != nil {
		t.Fatalf("launch refused after the window: %v", err)
	}
}

// TestZonedInjectorsHitTypedPools: a reclaim storm, a request gate and
// a trace gap scoped to an availability zone reach every pool of that
// zone — "us-east-1a" and "us-east-1a/m1.medium" alike — and no pool of
// another, as the zoned price spike and blackout already do.
func TestZonedInjectorsHitTypedPools(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 7, Type: market.M1Small, Types: []market.InstanceType{market.M1Medium},
		Zones: []string{"us-east-1a", "us-east-1b"},
		Start: 0, End: 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	pools := []string{"us-east-1a", "us-east-1a/m1.medium", "us-east-1b", "us-east-1b/m1.medium"}
	if !reflect.DeepEqual(set.Zones(), pools) {
		t.Fatalf("market pools %v, want %v", set.Zones(), pools)
	}
	p := cloud.NewProvider(set, cloud.Config{Seed: 5})
	request := func(pool string) (cloud.InstanceID, error) {
		od, err := market.PoolOnDemandPrice(pool, market.M1Small)
		if err != nil {
			t.Fatal(err)
		}
		return p.RequestSpot(pool, market.M1Small, od) // the highest bid allowed: never out of bid
	}
	live := make(map[string]cloud.InstanceID)
	for _, pool := range pools {
		id, err := request(pool)
		if err != nil {
			t.Fatal(err)
		}
		live[pool] = id
	}
	sc := Scenario{Name: "zoned", Seed: 3, Injectors: []Injector{
		{Kind: ReclaimStorm, Zone: "us-east-1a", Count: 4, From: 50},
		{Kind: RequestLoss, Zone: "us-east-1a", From: 100, Until: 200},
		{Kind: TraceGap, Zone: "us-east-1a", From: 100, Until: 200},
	}}
	e, err := New(sc, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Arm(p)
	p.AdvanceTo(150)
	for _, pool := range pools {
		hit := market.PoolZone(pool) == "us-east-1a"
		if inst, _ := p.Instance(live[pool]); (inst.State == cloud.Terminated) != hit {
			t.Errorf("storm: pool %s instance state %v, want reclaimed = %v", pool, inst.State, hit)
		}
		if _, err := request(pool); (err != nil) != hit {
			t.Errorf("request loss: pool %s request error %v, want lost = %v", pool, err, hit)
		}
		if _, gap := e.GapAt(pool, 150); gap != hit {
			t.Errorf("trace gap: pool %s in gap = %v, want %v", pool, gap, hit)
		}
	}
}
