// Package eventq provides an unbounded MPSC queue used as the mailbox of
// actor-style event loops throughout the system (consensus instances,
// orderer and executor nodes). Producers — transport callbacks, timers,
// worker goroutines — never block; the single consumer pops in FIFO
// order. Unbounded mailboxes prevent deadlock cycles between nodes that
// would otherwise block on each other's full inboxes; protocol-level flow
// control (watermarks, block sizes, closed-loop clients) bounds growth in
// practice.
package eventq

import "sync"

// Queue is an unbounded FIFO with blocking Pop and non-blocking Push.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  Ring[T]
	closed bool
}

// New returns an empty open queue.
func New[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends an item; it is a no-op after Close.
func (q *Queue[T]) Push(item T) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items.Push(item)
	q.cond.Signal()
}

// Pop removes the head item, blocking until one is available or the queue
// closes. The second result is false once the queue is closed and
// drained.
func (q *Queue[T]) Pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.items.Pop()
}

// Close wakes all blocked consumers; pending items may still be popped.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.cond.Broadcast()
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Len()
}

// Ring is an unsynchronized FIFO ring buffer that grows by doubling and
// never shrinks, so a queue in steady state pushes and pops without
// allocating. Pop zeroes the vacated slot: the buffer must not keep a
// popped item reachable. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest item
	n    int // items held
}

// Push appends an item at the tail.
func (r *Ring[T]) Push(item T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(16, 2*len(r.buf)))
		copied := copy(grown, r.buf[r.head:])
		copy(grown[copied:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = item
	r.n++
}

// Pop removes and returns the oldest item; false when the ring is empty.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	item := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return item, true
}

// Len returns the number of items held.
func (r *Ring[T]) Len() int { return r.n }
