package simnet

import (
	"testing"

	"repro/internal/engine"
)

type recorder struct {
	got []Message
}

func (r *recorder) Receive(_ *Network, m Message) { r.got = append(r.got, m) }

func TestSendDeliver(t *testing.T) {
	n := New(1)
	a, b := &recorder{}, &recorder{}
	n.Register("a", a.Receive)
	n.Register("b", b.Receive)
	n.Send("a", "b", "hello")
	if !n.Step() {
		t.Fatal("no event to step")
	}
	if len(b.got) != 1 || b.got[0].Payload != "hello" {
		t.Fatalf("b got %v", b.got)
	}
	if len(a.got) != 0 {
		t.Fatal("a received its own message")
	}
	if d, _ := n.Stats(); d != 1 {
		t.Fatalf("delivered = %d", d)
	}
}

func TestDeliveryOrderDeterministic(t *testing.T) {
	run := func() []Message {
		n := New(42)
		n.SetLatency(1, 10)
		r := &recorder{}
		n.Register("dst", r.Receive)
		n.Register("src", (&recorder{}).Receive)
		for i := 0; i < 50; i++ {
			n.Send("src", "dst", i)
		}
		n.Run(1000)
		return r.got
	}
	a, b := run(), run()
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("deliveries: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Payload != b[i].Payload {
			t.Fatalf("order diverged at %d", i)
		}
	}
}

func TestLatencyAdvancesClock(t *testing.T) {
	n := New(1)
	n.SetLatency(5, 5)
	n.Register("b", (&recorder{}).Receive)
	n.Send("a", "b", 1)
	n.Step()
	if n.Now() != 5 {
		t.Fatalf("Now = %d, want 5", n.Now())
	}
}

func TestCrashDropsTraffic(t *testing.T) {
	n := New(1)
	b := &recorder{}
	n.Register("b", b.Receive)
	n.Crash("b")
	n.Send("a", "b", 1)
	n.Step()
	if len(b.got) != 0 {
		t.Fatal("crashed node received message")
	}
	if _, dropped := n.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	n.Restart("b")
	n.Send("a", "b", 2)
	n.Step()
	if len(b.got) != 1 {
		t.Fatal("restarted node did not receive")
	}
}

func TestCrashEvaluatedAtDelivery(t *testing.T) {
	n := New(1)
	b := &recorder{}
	n.Register("b", b.Receive)
	n.SetLatency(10, 10)
	n.Send("a", "b", 1) // in flight
	n.Crash("b")        // crashes before delivery
	n.Step()
	if len(b.got) != 0 {
		t.Fatal("message delivered to node that crashed in flight")
	}
}

func TestPartition(t *testing.T) {
	n := New(1)
	a, b, c := &recorder{}, &recorder{}, &recorder{}
	n.Register("a", a.Receive)
	n.Register("b", b.Receive)
	n.Register("c", c.Receive)
	n.Partition([]NodeID{"a", "b"}, []NodeID{"c"})
	n.Send("a", "b", 1)
	n.Send("a", "c", 2)
	n.Run(10)
	if len(b.got) != 1 {
		t.Fatal("same-side message lost")
	}
	if len(c.got) != 0 {
		t.Fatal("cross-partition message delivered")
	}
	n.Heal()
	n.Send("a", "c", 3)
	n.Run(10)
	if len(c.got) != 1 {
		t.Fatal("message lost after heal")
	}
}

func TestDropProbability(t *testing.T) {
	n := New(7)
	r := &recorder{}
	n.Register("dst", r.Receive)
	n.SetDropProbability(0.5)
	const total = 2000
	for i := 0; i < total; i++ {
		n.Send("src", "dst", i)
	}
	n.Run(total * 2)
	got := len(r.got)
	if got < total/3 || got > 2*total/3 {
		t.Fatalf("with 50%% loss, delivered %d of %d", got, total)
	}
}

func TestTimers(t *testing.T) {
	n := New(1)
	fired := []int64{}
	n.After(10, "", func() { fired = append(fired, n.Now()) })
	n.After(5, "", func() { fired = append(fired, n.Now()) })
	n.Run(10)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("fired at %v, want [5 10]", fired)
	}
}

func TestTimerSkippedWhenOwnerCrashed(t *testing.T) {
	n := New(1)
	fired := false
	n.Register("x", (&recorder{}).Receive)
	n.After(5, "x", func() { fired = true })
	n.Crash("x")
	n.Run(10)
	if fired {
		t.Fatal("crashed node's timer fired")
	}
}

func TestTimerOrderingSameTick(t *testing.T) {
	n := New(1)
	var order []int
	n.After(5, "", func() { order = append(order, 1) })
	n.After(5, "", func() { order = append(order, 2) })
	n.Run(10)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("same-tick order %v, want [1 2]", order)
	}
}

func TestRunUntil(t *testing.T) {
	n := New(1)
	count := 0
	for i := 0; i < 10; i++ {
		n.After(int64(i+1), "", func() { count++ })
	}
	ok := n.RunUntil(func() bool { return count >= 5 }, 100)
	if !ok || count < 5 || count > 6 {
		t.Fatalf("RunUntil stopped at count=%d ok=%v", count, ok)
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	n := New(1)
	n.Send("a", "ghost", 1)
	n.Step()
	if _, dropped := n.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestDeregister(t *testing.T) {
	n := New(1)
	r := &recorder{}
	n.Register("a", r.Receive)
	n.Deregister("a")
	n.Send("x", "a", 1)
	n.Step()
	if len(r.got) != 0 {
		t.Fatal("deregistered node received message")
	}
}

// TestRestartHook pins when a node hears of its own restart: once per
// crash → restart, never on a Restart of a running node, and never
// after Deregister.
func TestRestartHook(t *testing.T) {
	n := New(1)
	n.Register("a", (&recorder{}).Receive)
	runs := 0
	n.OnRestart("a", func() { runs++ })
	n.Restart("a")
	if runs != 0 {
		t.Fatalf("hook ran %d times on a Restart of a running node", runs)
	}
	n.Crash("a")
	n.Restart("a")
	n.Restart("a")
	if runs != 1 {
		t.Fatalf("hook ran %d times for one crash → restart, want 1", runs)
	}
	n.Crash("a")
	n.Crash("a")
	n.Restart("a")
	if runs != 2 {
		t.Fatalf("hook ran %d times after two crash → restarts, want 2", runs)
	}
	n.Crash("a")
	n.Deregister("a")
	n.Register("a", (&recorder{}).Receive)
	n.Crash("a")
	n.Restart("a")
	if runs != 2 {
		t.Fatalf("hook ran after Deregister (%d runs)", runs)
	}
}

func TestStepEmptyQueue(t *testing.T) {
	n := New(1)
	if n.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	if next := n.queue.NextMinute(); next != engine.NoMinute {
		t.Fatalf("an event still queued at tick %d", next)
	}
}
