package eventq

import "sort"

// Event carries a payload scheduled at a point in time. When two events share
// a Time, the one with the smaller Seq is delivered first.
type Event[T any] struct {
	Time    float64
	Seq     int64
	Payload T
}

// Queue is a min-heap of events. The zero value is an empty queue ready to
// use.
//
// The heap is sifted directly on the generic slice rather than through
// container/heap: the heap.Interface methods traffic in `any`, which boxes
// every pushed and popped event onto the GC heap — one allocation per event,
// exactly the engine hot path this package exists to serve. With the slice
// backing reused across pushes, steady-state Push/Pop are allocation-free.
type Queue[T any] struct {
	h []Event[T]
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.h) }

// Push schedules an event.
func (q *Queue[T]) Push(e Event[T]) {
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

// PushAt is shorthand for Push with the given fields.
func (q *Queue[T]) PushAt(t float64, seq int64, payload T) {
	q.Push(Event[T]{Time: t, Seq: seq, Payload: payload})
}

// Peek returns the earliest event without removing it. ok is false when the
// queue is empty.
func (q *Queue[T]) Peek() (e Event[T], ok bool) {
	if len(q.h) == 0 {
		return e, false
	}
	return q.h[0], true
}

// Pop removes and returns the earliest event. ok is false when the queue is
// empty.
func (q *Queue[T]) Pop() (e Event[T], ok bool) {
	n := len(q.h)
	if n == 0 {
		return e, false
	}
	e = q.h[0]
	q.h[0] = q.h[n-1]
	var zero Event[T]
	q.h[n-1] = zero // drop the payload so it doesn't pin memory
	q.h = q.h[:n-1]
	if len(q.h) > 1 {
		q.down(0)
	}
	return e, true
}

func (q *Queue[T]) less(i, j int) bool {
	if q.h[i].Time != q.h[j].Time {
		return q.h[i].Time < q.h[j].Time
	}
	return q.h[i].Seq < q.h[j].Seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && q.less(r, l) {
			least = r
		}
		if !q.less(least, i) {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}

// Sorted returns a copy of all pending events in delivery order — ascending
// (Time, Seq). The queue is unchanged. The persistence layer serialises
// queues through it: re-Pushing the returned events into an empty queue
// yields a queue with the identical delivery order (the heap's internal
// layout may differ, but delivery order is a pure function of the event
// multiset).
func (q *Queue[T]) Sorted() []Event[T] {
	out := make([]Event[T], len(q.h))
	copy(out, q.h)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
