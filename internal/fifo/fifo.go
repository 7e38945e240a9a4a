// Package fifo provides the growable FIFO queue the simulators share.
package fifo

// Queue is a FIFO over a reused backing array. Pops advance a head index
// instead of re-slicing, so the array survives push/pop churn (one
// steady-state allocation per queue instead of one per wrap). A push
// compacts the live region to the front when the tail reaches the
// array's capacity with dead space before the head. The zero Queue is
// empty and ready to use.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Front returns the head element for in-place update; the queue must be
// non-empty.
func (q *Queue[T]) Front() *T { return &q.buf[q.head] }

// Items returns the queued elements, head first. The slice aliases the
// queue and is valid until the next Push, Pop or Reset.
func (q *Queue[T]) Items() []T { return q.buf[q.head:] }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the head element; the queue must be non-empty.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.Reset()
	}
	return v
}

// Reset empties the queue, keeping the backing array.
func (q *Queue[T]) Reset() {
	q.buf = q.buf[:0]
	q.head = 0
}
