package engine

// Timer is one scheduled wakeup in a Queue.
type Timer[T any] struct {
	// Minute is the simulated minute the timer fires.
	Minute int64
	// Prio breaks ties between timers scheduled for the same minute:
	// lower fires first. Use it to encode causal ordering constraints
	// (e.g. an out-of-bid reclaim must precede a startup completion
	// scheduled for the same minute).
	Prio int
	// Payload travels with the timer.
	Payload T

	seq uint64
}

// Queue is a deterministic min-priority queue of timers, ordered by
// (Minute, Prio, insertion sequence). The insertion sequence makes
// same-minute, same-priority pops FIFO — stable tie-breaking, so a
// simulation replayed from the same seed pops timers in the same order
// every time. Not safe for concurrent use; the simulation kernel is
// single-goroutine by design.
type Queue[T any] struct {
	heap    []Timer[T]
	nextSeq uint64
}

// Schedule adds a timer.
func (q *Queue[T]) Schedule(minute int64, prio int, payload T) {
	q.nextSeq++
	q.heap = append(q.heap, Timer[T]{Minute: minute, Prio: prio, Payload: payload, seq: q.nextSeq})
	q.up(len(q.heap) - 1)
}

// NextMinute peeks at the earliest scheduled minute, or NoMinute when
// the queue is empty.
func (q *Queue[T]) NextMinute() int64 {
	if len(q.heap) == 0 {
		return NoMinute
	}
	return q.heap[0].Minute
}

// PopDue removes and returns the earliest timer scheduled at or before
// the given minute. ok is false when no timer is due.
func (q *Queue[T]) PopDue(minute int64) (t Timer[T], ok bool) {
	if len(q.heap) == 0 || q.heap[0].Minute > minute {
		return Timer[T]{}, false
	}
	t = q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = Timer[T]{} // drop the popped payload's references
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return t, true
}

func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	if a.Minute != b.Minute {
		return a.Minute < b.Minute
	}
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.seq < b.seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.less(left, smallest) {
			smallest = left
		}
		if right < n && q.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
}
