package trace

import (
	"testing"

	"repro/internal/market"
	"repro/internal/stats"
)

const week = int64(7 * 24 * 60)

func TestZoneModelCalibration(t *testing.T) {
	for _, it := range []market.InstanceType{market.M1Small, market.M3Large} {
		for _, zone := range market.ExperimentZones() {
			m, err := ZoneModelFor(zone, it, 1)
			if err != nil {
				t.Fatal(err)
			}
			od := m.OnDemand
			if len(m.Levels) < 3 {
				t.Fatalf("%s/%s: only %d levels", zone, it, len(m.Levels))
			}
			for i := 1; i < len(m.Levels); i++ {
				if m.Levels[i] <= m.Levels[i-1] {
					t.Fatalf("%s/%s: levels not ascending at %d", zone, it, i)
				}
			}
			// All normal levels below on-demand; spike above.
			for i := 0; i < len(m.Levels)-1; i++ {
				if m.Levels[i] >= od {
					t.Errorf("%s/%s: normal level %d (%v) >= on-demand %v", zone, it, i, m.Levels[i], od)
				}
			}
			if spike := m.Levels[len(m.Levels)-1]; spike <= od {
				t.Errorf("%s/%s: spike %v <= on-demand %v", zone, it, spike, od)
			}
			// Base price fraction in the calibrated band.
			frac := m.Levels[0].Dollars() / od.Dollars()
			if frac < 0.10 || frac > 0.30 {
				t.Errorf("%s/%s: base fraction %.3f outside [0.10, 0.30]", zone, it, frac)
			}
			// Prices are tick-aligned.
			for i, lv := range m.Levels {
				if lv%Tick != 0 {
					t.Errorf("%s/%s: level %d (%d) not tick-aligned", zone, it, i, lv)
				}
			}
		}
	}
}

func TestZoneModelDeterministic(t *testing.T) {
	a, err := ZoneModelFor("us-east-1a", market.M1Small, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ZoneModelFor("us-east-1a", market.M1Small, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			t.Fatal("same seed produced different models")
		}
	}
	c, err := ZoneModelFor("us-east-1a", market.M1Small, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Levels[0] == c.Levels[0] && a.Levels[1] == c.Levels[1] && a.Levels[2] == c.Levels[2] {
		t.Log("warning: different seeds produced identical leading levels (possible but unlikely)")
	}
}

func TestGenerateTraceValid(t *testing.T) {
	m, err := ZoneModelFor("us-east-1a", market.M1Small, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Generate(stats.NewRNG(5), 0, week)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) < 20 {
		t.Fatalf("one-week trace has only %d change points", len(tr.Points))
	}
	// Every price is one of the model levels.
	levelSet := map[market.Money]bool{}
	for _, lv := range m.Levels {
		levelSet[lv] = true
	}
	for _, p := range tr.Points {
		if !levelSet[p.Price] {
			t.Fatalf("trace price %v not a model level", p.Price)
		}
	}
}

func TestGenerateTraceMostlyCheap(t *testing.T) {
	// The process should spend most time below on-demand — spot is cheap.
	m, err := ZoneModelFor("us-west-2a", market.M1Small, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Generate(stats.NewRNG(11), 0, 11*week)
	fracSpike := tr.FractionAbove(m.OnDemand)
	if fracSpike > 0.25 {
		t.Fatalf("spends %.1f%% of time above on-demand", 100*fracSpike)
	}
	fracCheap := 1 - tr.FractionAbove(m.Levels[2])
	if fracCheap < 0.4 {
		t.Fatalf("spends only %.1f%% of time in the three cheapest levels", 100*fracCheap)
	}
}

func TestGenerateSetDeterministicAndIndependent(t *testing.T) {
	cfg := GenConfig{Seed: 9, Type: market.M1Small, Zones: []string{"us-east-1a", "us-west-2b"}, Start: 0, End: week}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for z, ta := range a.ByZone {
		tb := b.ByZone[z]
		if len(ta.Points) != len(tb.Points) {
			t.Fatalf("zone %s trace lengths differ", z)
		}
		for i := range ta.Points {
			if ta.Points[i] != tb.Points[i] {
				t.Fatalf("zone %s point %d differs", z, i)
			}
		}
	}
	// Zone trace must not depend on which other zones are generated.
	solo, err := Generate(GenConfig{Seed: 9, Type: market.M1Small, Zones: []string{"us-west-2b"}, Start: 0, End: week})
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := a.ByZone["us-west-2b"], solo.ByZone["us-west-2b"]
	if len(ta.Points) != len(tb.Points) {
		t.Fatal("zone trace depends on sibling zones")
	}
	for i := range ta.Points {
		if ta.Points[i] != tb.Points[i] {
			t.Fatal("zone trace depends on sibling zones")
		}
	}
}

func TestGenerateZonesDiffer(t *testing.T) {
	cfg := GenConfig{Seed: 9, Type: market.M1Small, Zones: []string{"us-east-1a", "us-east-1b"}, Start: 0, End: week}
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := s.ByZone["us-east-1a"]
	b := s.ByZone["us-east-1b"]
	if a.MeanPrice() == b.MeanPrice() && len(a.Points) == len(b.Points) {
		t.Fatal("two zones generated identical-looking traces")
	}
}

func TestGenerateRejectsBadSpan(t *testing.T) {
	_, err := Generate(GenConfig{Seed: 1, Type: market.M1Small, Zones: []string{"us-east-1a"}, Start: 10, End: 5})
	if err == nil {
		t.Fatal("invalid span accepted")
	}
}

func TestGenerateUnknownZone(t *testing.T) {
	_, err := Generate(GenConfig{Seed: 1, Type: market.M1Small, Zones: []string{"atlantis-1a"}, Start: 0, End: 10})
	if err == nil {
		t.Fatal("unknown zone accepted")
	}
}

// Generate draws one trace from the ground-truth process over
// [start, end). The caller supplies the RNG so multiple draws from the
// same model are independent.
func (m *ZoneModel) Generate(r *stats.RNG, start, end int64) *Trace {
	t := &Trace{Zone: m.Zone, Type: m.Type, Start: start, End: end}
	for _, s := range m.walk(r, start, end) {
		t.Points = append(t.Points, PricePoint{Minute: s.minute, Price: m.Levels[s.level]})
	}
	return t
}
