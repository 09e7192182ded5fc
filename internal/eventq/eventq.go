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
	items  []T
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
	q.items = append(q.items, item)
	q.cond.Signal()
}

// Pop removes the head item, blocking until one is available or the queue
// closes. The second result is false once the queue is closed and
// drained.
func (q *Queue[T]) Pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	item := q.items[0]
	var zero T
	q.items[0] = zero // the backing array must not keep a popped item alive
	q.items = q.items[1:]
	return item, true
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
	return len(q.items)
}
