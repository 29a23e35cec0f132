package telemetry

import (
	"encoding/json"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter", "zone").With("us-east-1a")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := reg.Gauge("g", "a gauge").With()
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", g.Value())
	}
	h := reg.Histogram("h", "a histogram", 1, 1000, 1).With()
	h.Observe(5)
	h.Observe(50)
	snap := reg.Snapshot()
	if len(snap.Families) != 3 {
		t.Fatalf("families = %d, want 3", len(snap.Families))
	}
	// Families sorted by name: c_total, g, h.
	hs := snap.Families[2]
	if hs.Name != "h" || hs.Series[0].Count != 2 || hs.Series[0].Sum != 55 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "", "zone")
	b := reg.Counter("x_total", "", "zone")
	a.With("z").Add(3)
	if got := b.With("z").Value(); got != 3 {
		t.Fatalf("re-registered family lost state: %d, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("schema mismatch did not panic")
		}
	}()
	reg.Gauge("x_total", "", "zone")
}

func TestHandleIdentity(t *testing.T) {
	reg := NewRegistry()
	vec := reg.Counter("y_total", "", "zone")
	vec.With("a").Inc()
	vec.With("a").Inc()
	vec.With("b").Inc()
	if got := vec.With("a").Value(); got != 2 {
		t.Fatalf("series a = %d, want 2", got)
	}
	if got := vec.With("b").Value(); got != 1 {
		t.Fatalf("series b = %d, want 1", got)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines —
// the shape of a parallel sweep where every cell's collector updates
// shared families — and checks nothing is lost.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	vec := reg.Counter("conc_total", "", "worker")
	hvec := reg.Histogram("conc_hist", "", 1, 1000, 3, "worker")
	const workers, each = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			c := vec.With(name)
			h := hvec.With(name)
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(float64(1 + i%100))
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	for _, f := range snap.Families {
		for _, s := range f.Series {
			switch f.Name {
			case "conc_total":
				if s.Value != each {
					t.Fatalf("series %v = %g, want %d", s.LabelValues, s.Value, each)
				}
			case "conc_hist":
				if s.Count != each {
					t.Fatalf("series %v count = %d, want %d", s.LabelValues, s.Count, each)
				}
			}
		}
	}
}

// lookup finds one series of a snapshot by family name and label
// values.
func lookup(snap Snapshot, family string, labels ...string) (FamilySnapshot, SeriesSnapshot, bool) {
	for _, f := range snap.Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if slices.Equal(s.LabelValues, labels) {
				return f, s, true
			}
		}
	}
	return FamilySnapshot{}, SeriesSnapshot{}, false
}

// TestSnapshotShape pins what the manifest records of each metric kind:
// kind names, label schemas, counter and gauge values, and a
// histogram's cumulative buckets, sum and count — deterministically.
func TestSnapshotShape(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "events seen", "zone", "tier").With("us-east-1a", "spot").Add(7)
	reg.Gauge("b_live", "live nodes").With().Set(3)
	h := reg.Histogram("c_minutes", "down minutes", 1, 100, 1, "svc").With("lock")
	h.Observe(5)
	h.Observe(500) // over range: counted only in the implicit +Inf bucket, Count
	snap := reg.Snapshot()

	if f, s, ok := lookup(snap, "a_total", "us-east-1a", "spot"); !ok || f.Kind != "counter" ||
		!slices.Equal(f.Labels, []string{"zone", "tier"}) || s.Value != 7 {
		t.Errorf("a_total = %+v %+v (found %v), want counter{zone,tier} 7", f, s, ok)
	}
	if f, s, ok := lookup(snap, "b_live"); !ok || f.Kind != "gauge" || s.Value != 3 {
		t.Errorf("b_live = %+v %+v (found %v), want gauge 3", f, s, ok)
	}
	f, s, ok := lookup(snap, "c_minutes", "lock")
	if !ok || f.Kind != "histogram" || s.Sum != 505 || s.Count != 2 {
		t.Fatalf("c_minutes = %+v %+v (found %v), want histogram sum 505 count 2", f, s, ok)
	}
	le10 := false
	for _, b := range s.Buckets {
		if b.UpperBound == 10 {
			le10 = b.Cumulative == 1
		}
	}
	if !le10 {
		t.Errorf("c_minutes buckets %+v: want le=10 holding 1", s.Buckets)
	}
	// Deterministic: a second snapshot is identical.
	if again := reg.Snapshot(); !reflect.DeepEqual(again, snap) {
		t.Error("snapshot is not deterministic across calls")
	}
}

// TestLabelEscaping: a label value with quotes, a backslash and a
// newline reaches the manifest verbatim — JSON does the escaping.
func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	raw := `a"b\c` + "\n"
	reg.Counter("esc_total", "", "path").With(raw).Inc()
	b, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if _, s, ok := lookup(snap, "esc_total", raw); !ok || s.Value != 1 {
		t.Fatalf("label %q lost in the manifest: %+v", raw, snap)
	}
}
