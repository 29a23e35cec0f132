package trace

import (
	"fmt"
	"testing"

	"repro/internal/market"
)

func mkTrace(t *testing.T) *Trace {
	t.Helper()
	tr := &Trace{
		Zone:  "us-east-1a",
		Type:  market.M1Small,
		Start: 0,
		End:   100,
		Points: []PricePoint{
			{0, market.FromDollars(0.0071)},
			{30, market.FromDollars(0.0081)},
			{60, market.FromDollars(0.0117)},
			{90, market.FromDollars(0.0071)},
		},
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPriceAt(t *testing.T) {
	tr := mkTrace(t)
	cases := []struct {
		min  int64
		want market.Money
	}{
		{0, market.FromDollars(0.0071)},
		{29, market.FromDollars(0.0071)},
		{30, market.FromDollars(0.0081)},
		{59, market.FromDollars(0.0081)},
		{60, market.FromDollars(0.0117)},
		{99, market.FromDollars(0.0071)},
	}
	for _, c := range cases {
		if got := tr.PriceAt(c.min); got != c.want {
			t.Errorf("PriceAt(%d) = %v, want %v", c.min, got, c.want)
		}
	}
}

func TestPriceAtOutOfRangePanics(t *testing.T) {
	tr := mkTrace(t)
	for _, min := range []int64{-1, 100, 200} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PriceAt(%d) did not panic", min)
				}
			}()
			tr.PriceAt(min)
		}()
	}
}

func TestValidateRejects(t *testing.T) {
	base := mkTrace(t)
	bad := []*Trace{
		{Zone: "z", Start: 10, End: 5},
		{Zone: "z", Start: 0, End: 10},                                        // no points over non-empty span
		{Zone: "z", Start: 0, End: 10, Points: []PricePoint{{5, 1}}},          // first point after start
		{Zone: "z", Start: 0, End: 10, Points: []PricePoint{{0, 1}, {0, 2}}},  // not increasing
		{Zone: "z", Start: 0, End: 10, Points: []PricePoint{{0, 1}, {10, 2}}}, // point at end
		{Zone: "z", Start: 0, End: 10, Points: []PricePoint{{0, -5}}},         // negative price
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d validated", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("good trace rejected: %v", err)
	}
}

// TestWindow: a window is a view whose first point, the one in effect
// at its start, lies before it; every answer counts from the start.
func TestWindow(t *testing.T) {
	tr := mkTrace(t)
	w := tr.Window(45, 95)
	if w.PriceAt(45) != market.FromDollars(0.0081) {
		t.Errorf("window start price = %v", w.PriceAt(45))
	}
	if w.PriceAt(94) != market.FromDollars(0.0071) {
		t.Errorf("window end price = %v", w.PriceAt(94))
	}
	if len(w.Points) != 3 || &w.Points[0] != &tr.Points[1] {
		t.Errorf("window points %v, want a view of the parent's last three", w.Points)
	}
	if got := w.AgeAt(50); got != 6 {
		t.Errorf("window AgeAt(50) = %d, want 6 (from the window start)", got)
	}
	want := []Sojourn{{market.FromDollars(0.0081), 15}, {market.FromDollars(0.0117), 30}, {market.FromDollars(0.0071), 5}}
	if got := w.Sojourns(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("window sojourns %v, want %v", got, want)
	}
}

func TestWindowEmpty(t *testing.T) {
	tr := mkTrace(t)
	w := tr.Window(50, 50)
	if len(w.Points) != 0 {
		t.Fatalf("empty window has points")
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSojourns(t *testing.T) {
	tr := mkTrace(t)
	runs := tr.Sojourns()
	if len(runs) != 4 {
		t.Fatalf("got %d sojourns, want 4", len(runs))
	}
	wantMinutes := []int64{30, 30, 30, 10}
	for i, r := range runs {
		if r.Minutes != wantMinutes[i] {
			t.Errorf("sojourn %d = %d min, want %d", i, r.Minutes, wantMinutes[i])
		}
	}
}

func TestSojournsMergeEqualPrices(t *testing.T) {
	tr := &Trace{
		Zone: "z", Type: market.M1Small, Start: 0, End: 30,
		Points: []PricePoint{{0, 100}, {10, 100}, {20, 200}},
	}
	runs := tr.Sojourns()
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2 (equal prices merged)", len(runs))
	}
	if runs[0].Minutes != 20 || runs[1].Minutes != 10 {
		t.Fatalf("runs = %+v", runs)
	}
}

func TestMeanMaxFraction(t *testing.T) {
	tr := mkTrace(t)
	if got := tr.MaxPrice(); got != market.FromDollars(0.0117) {
		t.Errorf("MaxPrice = %v", got)
	}
	// 40 min at 0.0071, 30 at 0.0081, 30 at 0.0117
	wantMean := market.Money((40*7100 + 30*8100 + 30*11700) / 100)
	if got := tr.MeanPrice(); got != wantMean {
		t.Errorf("MeanPrice = %v, want %v", got, wantMean)
	}
	if got := tr.FractionAbove(market.FromDollars(0.0081)); got != 0.3 {
		t.Errorf("FractionAbove(0.0081) = %v, want 0.3", got)
	}
	if got := tr.FractionAbove(market.FromDollars(1)); got != 0 {
		t.Errorf("FractionAbove(high) = %v, want 0", got)
	}
	if got := tr.FractionAbove(0); got != 1.0 {
		t.Errorf("FractionAbove(0) = %v, want 1", got)
	}
}

func TestSetAddValidation(t *testing.T) {
	s := NewSet(market.M1Small, 0, 100)
	if err := s.Add(mkTrace(t)); err != nil {
		t.Fatal(err)
	}
	wrongType := mkTrace(t)
	wrongType.Type = market.M3Large
	if err := s.Add(wrongType); err == nil {
		t.Error("wrong-type trace accepted")
	}
	wrongSpan := mkTrace(t)
	wrongSpan.End = 50
	wrongSpan.Points = wrongSpan.Points[:2]
	if err := s.Add(wrongSpan); err == nil {
		t.Error("wrong-span trace accepted")
	}
}

func TestSetZonesSorted(t *testing.T) {
	s := NewSet(market.M1Small, 0, 100)
	for _, z := range []string{"us-west-2b", "ap-northeast-1a", "eu-west-1c"} {
		tr := mkTrace(t)
		tr.Zone = z
		if err := s.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	zones := s.Zones()
	want := []string{"ap-northeast-1a", "eu-west-1c", "us-west-2b"}
	for i := range want {
		if zones[i] != want[i] {
			t.Fatalf("Zones() = %v, want %v", zones, want)
		}
	}
}

func TestSetWindow(t *testing.T) {
	s := NewSet(market.M1Small, 0, 100)
	if err := s.Add(mkTrace(t)); err != nil {
		t.Fatal(err)
	}
	w := s.Window(20, 80)
	if w.Start != 20 || w.End != 80 {
		t.Fatalf("window span [%d, %d)", w.Start, w.End)
	}
	if w.ByZone["us-east-1a"].PriceAt(20) != market.FromDollars(0.0071) {
		t.Fatal("window price mismatch")
	}
}

// TestValidateErrorOrder pins which error Validate returns when a trace
// has several defects: points not increasing, then a last point at or
// past End, then a negative price (the first one). Each row removes the
// defect the row before it reported.
func TestValidateErrorOrder(t *testing.T) {
	for _, tc := range []struct {
		end    int64
		points []PricePoint
		want   string
	}{
		{10, []PricePoint{{0, 1}, {5, -3}, {5, 2}, {10, -4}},
			"trace z/m1.small: points not strictly increasing at index 2"},
		{10, []PricePoint{{0, 1}, {5, -3}, {7, 2}, {10, -4}},
			"trace z/m1.small: last point 10 at or beyond end 10"},
		{11, []PricePoint{{0, 1}, {5, -3}, {7, 2}, {10, -4}},
			"trace z/m1.small: negative price at minute 5"},
		{11, []PricePoint{{0, 1}, {5, 3}, {7, 2}, {10, -4}},
			"trace z/m1.small: negative price at minute 10"},
		{11, []PricePoint{{0, 1}, {5, 3}, {7, 2}, {10, 4}}, ""},
	} {
		tr := &Trace{Zone: "z", Type: market.M1Small, Start: 0, End: tc.end, Points: tc.points}
		err := tr.Validate()
		if got := fmt.Sprint(err); (err == nil) != (tc.want == "") || (err != nil && got != tc.want) {
			t.Errorf("Validate(%v, end %d) = %v, want %q", tc.points, tc.end, err, tc.want)
		}
	}
}

// fingerprintSet is a small typed market: two zones, two types, two
// days.
func fingerprintSet(t *testing.T) *Set {
	t.Helper()
	set, err := Generate(GenConfig{
		Seed: 2014, Type: market.M1Small, Zones: []string{"us-east-1a", "eu-west-1a"},
		Start: 0, End: 2 * 24 * 60, Types: []market.InstanceType{market.C3Large},
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestFingerprintPinned pins the value for one generated set, so a
// change to the word mix or to the field order is a visible decision.
func TestFingerprintPinned(t *testing.T) {
	const want = 0x5511f4a3fa3324eb
	if got := fingerprintSet(t).Fingerprint(); got != want {
		t.Fatalf("Fingerprint = %#x, want %#x", got, want)
	}
}

// TestFingerprintSeesEveryField: a ±1 change to any one point's minute
// or price, a renamed zone or type, or a moved span edge each change
// the fingerprint, and undoing the change restores it.
func TestFingerprintSeesEveryField(t *testing.T) {
	set := fingerprintSet(t)
	base := set.Fingerprint()
	differs := func(what string) {
		t.Helper()
		if set.Fingerprint() == base {
			t.Fatalf("%s: fingerprint unchanged", what)
		}
	}
	points := 0
	for _, key := range set.Zones() {
		pts := set.ByZone[key].Points
		for i := range pts {
			p := pts[i]
			for _, d := range []int64{-1, 1} {
				pts[i].Minute = p.Minute + d
				differs(fmt.Sprintf("%s point %d minute %+d", key, i, d))
				pts[i] = p
				pts[i].Price = p.Price + market.Money(d)
				differs(fmt.Sprintf("%s point %d price %+d", key, i, d))
				pts[i] = p
			}
			points++
		}
	}
	if points < 100 {
		t.Fatalf("only %d points checked", points)
	}
	rekey := func(from, to string) {
		set.ByZone[to] = set.ByZone[from]
		delete(set.ByZone, from)
	}
	for _, r := range [][2]string{
		{"us-east-1a", "us-east-1b"},                   // zone of a base-type pool
		{"eu-west-1a/c3.large", "eu-west-1b/c3.large"}, // zone of a typed pool
		{"eu-west-1a/c3.large", "eu-west-1a/r3.large"}, // type of a typed pool
	} {
		rekey(r[0], r[1])
		differs("rename " + r[0] + " to " + r[1])
		rekey(r[1], r[0])
	}
	set.Type = market.M1Medium
	differs("base type renamed")
	set.Type = market.M1Small
	for _, d := range []int64{-1, 1} {
		set.Start += d
		differs(fmt.Sprintf("start %+d", d))
		set.Start -= d
		set.End += d
		differs(fmt.Sprintf("end %+d", d))
		set.End -= d
	}
	if set.Fingerprint() != base {
		t.Fatal("undoing every change did not restore the fingerprint")
	}
}

// Window returns the set restricted to [lo, hi).
func (s *Set) Window(lo, hi int64) *Set {
	w := NewSet(s.Type, lo, hi)
	for z, t := range s.ByZone {
		w.ByZone[z] = t.Window(lo, hi)
	}
	return w
}
