// Package eventq provides a deterministic min-heap event queue. The packing
// engine (internal/core) keeps its crashes, its retries and the departures
// that its instance cannot order in advance in such queues: a dynamic run's
// departures, a restored run's pending ones, and those of items re-placed
// after a crash. A static run reads the other departures from its
// instance's sorted departure order, and the Lemma 1 bound
// (internal/lowerbound) sweeps sorted orders too. Nothing serialises a
// queue: an engine snapshot stores no departures, and a restored run pushes
// each active item's departure again.
//
// Events are ordered by time; ties are broken by an explicit sequence number
// so that simulations are reproducible regardless of insertion order quirks.
// This matters for the half-open interval convention of the packing engine:
// a departure and an arrival at the same instant must be processed in a fixed
// order (departure first) or costs and bin counts become run-dependent.
//
// The queue is generic over its payload type:
//
//	var q eventq.Queue[string]
//	q.Push(eventq.Event[string]{Time: 2, Seq: 0, Payload: "depart"})
//	q.Push(eventq.Event[string]{Time: 2, Seq: 1, Payload: "arrive"})
//	e, _ := q.Pop() // "depart": equal times resolve by Seq
//
// The zero value of Queue is an empty queue ready to use; it is not safe for
// concurrent use.
package eventq
