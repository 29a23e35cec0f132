package provenance

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"unsafe"
)

func TestRecorderNilSafety(t *testing.T) {
	var r *Recorder
	dt := r.Begin(10)
	if dt != nil {
		t.Fatalf("nil recorder Begin = %v, want nil", dt)
	}
	dt.Emit(Span{Kind: SpanStage}) // must not panic
	if r.Spans() != nil {
		t.Fatalf("nil recorder leaked state")
	}
}

func TestRecorderSampling(t *testing.T) {
	r := NewRecorder(3)
	var traced []int64
	for i := 0; i < 10; i++ {
		if dt := r.Begin(int64(100 * i)); dt != nil {
			dt.Emit(Span{Kind: SpanStage})
			spans := r.Spans()
			traced = append(traced, spans[len(spans)-1].Decision)
		}
	}
	if r.decisions != 10 {
		t.Fatalf("decisions = %d, want 10 (unsampled decisions still count)", r.decisions)
	}
	// Every 3rd decision starting with the first: 1, 4, 7, 10.
	want := []int64{1, 4, 7, 10}
	if len(traced) != len(want) {
		t.Fatalf("traced decisions %v, want %v", traced, want)
	}
	for i := range want {
		if traced[i] != want[i] {
			t.Fatalf("traced decisions %v, want %v", traced, want)
		}
	}
}

// TestRecorderStampAndEmit: Emit stamps each span with its decision's
// sequence number and minute.
func TestRecorderStampAndEmit(t *testing.T) {
	r := NewRecorder(1)
	dt := r.Begin(60)
	dt.Emit(Span{Kind: SpanPool, Pool: "us-east-1a", Outcome: "ok"})
	dt = r.Begin(120)
	dt.Emit(Span{Kind: SpanChosen, Outcome: "ok", Nodes: 5})

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Decision != 1 || spans[0].Minute != 60 || spans[1].Decision != 2 || spans[1].Minute != 120 {
		t.Fatalf("decision/minute stamping wrong: %+v", spans)
	}
}

// TestRecorderAcrossChunks: spans keep their emission order, stamps and
// sampling across chunk boundaries, and Spans hands out a fresh slice
// that later emissions do not reach.
func TestRecorderAcrossChunks(t *testing.T) {
	for _, n := range []int{1, chunkSpans - 1, chunkSpans, chunkSpans + 1, 3*chunkSpans + 7} {
		r := NewRecorder(2)
		var want []Span
		for i := 0; len(want) < n; i++ {
			dt := r.Begin(int64(10 * i))
			for k := 0; k < 5 && len(want) < n && dt != nil; k++ {
				s := Span{Kind: SpanPool, Nodes: len(want)}
				dt.Emit(s)
				s.Decision, s.Minute = int64(i+1), int64(10*i)
				want = append(want, s)
			}
		}
		got := r.Spans()
		if len(got) != n {
			t.Fatalf("n=%d: %d spans", n, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: span %d = %+v, want %+v", n, i, got[i], want[i])
			}
			if got[i].Decision%2 != 1 {
				t.Fatalf("n=%d: span %d from unsampled decision %d", n, i, got[i].Decision)
			}
		}
		got[0].Kind = "mutated"
		dt := r.Begin(1 << 20)
		if dt == nil {
			dt = r.Begin(1 << 20)
		}
		dt.Emit(Span{Kind: SpanChosen})
		if again := r.Spans(); len(again) != n+1 || again[0].Kind != SpanPool || again[n].Kind != SpanChosen {
			t.Fatalf("n=%d: a caller's slice aliases the recorder", n)
		}
	}
}

// TestRecorderEmitAllocs: recording N spans allocates one chunk per
// chunkSpans of them and the decision's trace handle, nothing more.
func TestRecorderEmitAllocs(t *testing.T) {
	if sz := unsafe.Sizeof(spanChunk{}); sz > 32<<10-8 {
		t.Fatalf("a chunk is %d bytes, a large object", sz)
	}
	for _, n := range []int{1, chunkSpans, 5*chunkSpans + 1} {
		budget := float64((n+chunkSpans-1)/chunkSpans + 1)
		allocs := testing.AllocsPerRun(20, func() {
			dt := NewRecorder(1).Begin(0)
			for i := 0; i < n; i++ {
				dt.Emit(Span{Kind: SpanCandidate, Nodes: i})
			}
		})
		// The recorder itself is one more allocation, not the recording's.
		if allocs-1 > budget {
			t.Errorf("recording %d spans: %v allocations, want at most %v", n, allocs-1, budget)
		}
	}
}

// TestSpansRoundTrip: spans reach the run manifest as JSON, compact —
// unset fields omitted — deterministic, and read back unchanged.
func TestSpansRoundTrip(t *testing.T) {
	spans := []Span{
		{Decision: 1, Minute: 60, Kind: SpanStage, Outcome: "healthy"},
		{Decision: 1, Minute: 60, Kind: SpanPool, Pool: "us-east-1a", Outcome: "ok", CurMicroUSD: 7900},
		{Decision: 1, Minute: 60, Kind: SpanChosen, Outcome: "ok", Nodes: 5,
			CostMicroUSD: 56200, Availability: 0.9999923, Target: 0.9999901, Margin: 2.2e-06},
	}
	a, err := json.Marshal(spans)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(spans)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("equal inputs encoded differently")
	}
	want := `[{"decision":1,"minute":60,"kind":"stage","outcome":"healthy"},`
	if !strings.HasPrefix(string(a), want) {
		t.Fatalf("spans encode as\n%s\nwant the prefix\n%s", a, want)
	}
	var got []Span
	if err := json.Unmarshal(a, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) {
		t.Fatalf("got %d spans, want %d", len(got), len(spans))
	}
	for i := range spans {
		if got[i] != spans[i] {
			t.Fatalf("span %d round-trip: got %+v, want %+v", i, got[i], spans[i])
		}
	}
}

func TestAttributionMergeAndWorstCause(t *testing.T) {
	a := Attribution{
		Cells: []AttributionCell{
			{Pool: "us-east-1a", Cause: CauseOutOfBid, CostMicroUSD: 100, DownMinutes: 5},
			{Pool: "us-west-1b", Cause: CauseOnDemand, CostMicroUSD: 900},
		},
		TotalCostMicroUSD: 1000, TotalDownMinutes: 5,
	}
	b := Attribution{
		Cells: []AttributionCell{
			{Pool: "us-east-1a", Cause: CauseOutOfBid, CostMicroUSD: 50},
			{Pool: "us-east-1a", Cause: "reclaim-storm", DownMinutes: 40},
		},
		TotalCostMicroUSD: 50, TotalDownMinutes: 40,
	}
	ab, ba := a.Merge(b), b.Merge(a)
	if ab.TotalCostMicroUSD != 1050 || ab.TotalDownMinutes != 45 {
		t.Fatalf("merge totals = %d/%d, want 1050/45", ab.TotalCostMicroUSD, ab.TotalDownMinutes)
	}
	if len(ab.Cells) != 3 {
		t.Fatalf("merged cells = %d, want 3", len(ab.Cells))
	}
	// Commutative: both orders render identically.
	for i := range ab.Cells {
		if ab.Cells[i] != ba.Cells[i] {
			t.Fatalf("merge is order-dependent: %+v vs %+v", ab.Cells, ba.Cells)
		}
	}
	// Sorted by (pool, cause).
	for i := 1; i < len(ab.Cells); i++ {
		p, q := ab.Cells[i-1], ab.Cells[i]
		if p.Pool > q.Pool || (p.Pool == q.Pool && p.Cause > q.Cause) {
			t.Fatalf("cells unsorted: %+v", ab.Cells)
		}
	}
	if wc := ab.WorstCause(); wc != "reclaim-storm" {
		t.Fatalf("WorstCause = %q, want reclaim-storm", wc)
	}
	if wc := (Attribution{}).WorstCause(); wc != "" {
		t.Fatalf("WorstCause of empty attribution = %q, want empty", wc)
	}
	// Ties break to the lexicographically first cause.
	tie := Attribution{Cells: []AttributionCell{
		{Cause: "zebra", DownMinutes: 7},
		{Cause: "alpha", DownMinutes: 7},
	}}
	if wc := tie.WorstCause(); wc != "alpha" {
		t.Fatalf("tied WorstCause = %q, want alpha", wc)
	}
}

func TestRenderAttribution(t *testing.T) {
	a := Attribution{
		Cells: []AttributionCell{
			{Cause: CauseStartup, DownMinutes: 12},
			{Pool: "us-east-1a", Cause: CauseOutOfBid, CostMicroUSD: 1_250_000, DownMinutes: 30},
		},
		TotalCostMicroUSD: 1_250_000, TotalDownMinutes: 42,
	}
	var buf bytes.Buffer
	if err := RenderAttribution(&buf, a); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"POOL", "CAUSE", "COST", "DOWN-MIN", "us-east-1a", "out-of-bid", "$1.25", "TOTAL", "42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Pool-less cells render with a placeholder, not an empty column.
	if !strings.Contains(out, "-") {
		t.Fatalf("pool-less cell placeholder missing:\n%s", out)
	}
}
