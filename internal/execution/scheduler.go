// This file implements the ready queue between dispatch and the worker
// pool. Algorithm 1 runs a transaction once all of Pre(x) are in
// Ce ∪ Xe and leaves the order among ready transactions free; the
// executor spends that freedom on dependents first. A ready transaction
// that some other in-window transaction waits on (a non-empty intra- or
// cross-block successor list at dispatch time) pops before any ready
// transaction nothing waits on. Under plain discovery order a hot-chain
// link that has just become ready queues behind every cold transaction
// already waiting, and each dependency hop pays that drain; popping it
// first keeps the chain moving while the cold work fills the other
// workers.
//
// Dependents-first items pop most recent first (a stack: the link just
// unblocked is the one the chain is waiting for); everything else keeps
// discovery order (a FIFO). Both ends are O(1) under one mutex. The queue
// never removes items: epoch-tagged re-dispatch under speculation
// cascades means a stale item can sit in the queue, get popped, execute,
// and have its result disowned by the actor's epoch check. Reordering the
// ready set is the one freedom Algorithm 1 leaves the executor, so any
// dispatch order is bit-identical to the sequential baseline (see
// TestSchedulerEquivalence and TestSeededDispatchEquivalence).

package execution

import (
	"sync"

	"parblockchain/internal/eventq"
)

// scheduler is the ready queue between the actor loop's dispatch and the
// worker pool. Push never blocks and is a no-op after Close; Pop blocks
// until an item is available or the queue is closed and drained. first
// marks an item some other transaction waits on. readyQueue is the one
// implementation; the interface exists so tests can inject a seeded
// dispatch order (Config.newQueue).
type scheduler interface {
	Push(item workItem, first bool)
	Pop() (workItem, bool)
	Close()
	Len() int
}

// readyQueue is the dependents-first ready queue: a stack of items
// something waits on, popped ahead of a FIFO of the rest.
type readyQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	first  []workItem            // LIFO
	rest   eventq.Ring[workItem] // FIFO
	closed bool
}

func newReadyQueue() *readyQueue {
	q := &readyQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *readyQueue) Push(item workItem, first bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if first {
		q.first = append(q.first, item)
	} else {
		q.rest.Push(item)
	}
	q.cond.Signal()
}

// Pop clears each vacated slot so a popped item's *blockState is not kept
// reachable by the backing arrays.
func (q *readyQueue) Pop() (workItem, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.first) == 0 && q.rest.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	if last := len(q.first) - 1; last >= 0 {
		item := q.first[last]
		q.first[last] = workItem{}
		q.first = q.first[:last]
		return item, true
	}
	return q.rest.Pop()
}

func (q *readyQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		q.cond.Broadcast()
	}
}

func (q *readyQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.first) + q.rest.Len()
}
