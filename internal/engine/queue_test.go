package engine

import (
	"testing"
)

func drain(q *Queue[string]) []Timer[string] {
	var out []Timer[string]
	for {
		t, ok := q.PopDue(NoMinute)
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

func TestQueueOrdersByMinute(t *testing.T) {
	var q Queue[string]
	q.Schedule(30, 0, "c")
	q.Schedule(10, 0, "a")
	q.Schedule(20, 0, "b")
	got := drain(&q)
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if got[i].Payload != w {
			t.Fatalf("pop %d = %q, want %q", i, got[i].Payload, w)
		}
	}
}

func TestQueueStableTieBreaking(t *testing.T) {
	// Same minute, same priority: FIFO by insertion. Same minute,
	// different priority: lower priority value first regardless of
	// insertion order.
	var q Queue[string]
	q.Schedule(5, 1, "second")
	q.Schedule(5, 0, "first")
	q.Schedule(5, 1, "third")
	got := drain(&q)
	want := []string{"first", "second", "third"}
	if len(got) != len(want) {
		t.Fatalf("drained %d timers, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Payload != w {
			t.Fatalf("pop %d = %q, want %q", i, got[i].Payload, w)
		}
	}
}

func TestQueuePopDueRespectsHorizon(t *testing.T) {
	var q Queue[string]
	q.Schedule(10, 0, "early")
	q.Schedule(50, 0, "late")
	if _, ok := q.PopDue(9); ok {
		t.Fatal("popped a timer before its minute")
	}
	if tm, ok := q.PopDue(10); !ok || tm.Payload != "early" {
		t.Fatalf("PopDue(10) = %+v, %v", tm, ok)
	}
	if q.NextMinute() != 50 {
		t.Fatalf("NextMinute = %d, want 50", q.NextMinute())
	}
	if _, ok := q.PopDue(49); ok {
		t.Fatal("popped the late timer early")
	}
}

func TestQueueEmptyPeeksNoMinute(t *testing.T) {
	var q Queue[int]
	if q.NextMinute() != NoMinute {
		t.Fatalf("empty NextMinute = %d", q.NextMinute())
	}
	if _, ok := q.PopDue(NoMinute); ok {
		t.Fatal("popped from empty queue")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestQueueDeterministicUnderLoad(t *testing.T) {
	// Two identically-fed queues drain identically — the reproducibility
	// property the replay kernel relies on.
	build := func() []Timer[int] {
		var q Queue[int]
		for i := 0; i < 500; i++ {
			q.Schedule(int64((i*7919)%97), i%3, i)
		}
		var out []Timer[int]
		for {
			tm, ok := q.PopDue(NoMinute)
			if !ok {
				return out
			}
			out = append(out, tm)
		}
	}
	a, b := build(), build()
	prevMinute, prevPrio := int64(-1), -1
	_ = prevPrio
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drains diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Minute < prevMinute {
			t.Fatalf("minute order violated at %d", i)
		}
		prevMinute = a[i].Minute
	}
	if len(a) != 500 {
		t.Fatalf("drained %d, want 500", len(a))
	}
}

// Len returns the number of scheduled timers.
func (q *Queue[T]) Len() int { return len(q.heap) }
