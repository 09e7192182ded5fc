package transport

import (
	"sync"
	"time"

	"parblockchain/internal/types"
)

// inboxBuffer is the capacity of the channel Recv returns. A message
// enters it only once due, so the buffer changes no deadline; it lets the
// pump hand a burst to a busy receiver without a goroutine switch per
// message.
const inboxBuffer = 64

// inbox is an endpoint's one delivery queue, shared by both transports:
// pending messages sit in a min-heap ordered by (deliverAt, seq) under
// one mutex, and one pump goroutine waits on one timer for the head's
// deadline and hands it to the channel Recv returns. Messages pushed with
// equal deadlines (all of a TCP endpoint's, which are due on arrival)
// leave in push order. Push never blocks, so a slow receiver never stalls
// a sender.
type inbox struct {
	out  chan Message
	wake chan struct{} // capacity 1: the heap's head changed
	done chan struct{} // closed by close

	mu     sync.Mutex
	heap   []pending
	seq    uint64
	closed bool
}

// pending is a message scheduled for delivery at a deadline.
type pending struct {
	msg Message
	at  time.Time
	seq uint64
}

// startInbox returns an open inbox whose pump runs under wg.
func startInbox(wg *sync.WaitGroup) *inbox {
	q := &inbox{
		out:  make(chan Message, inboxBuffer),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	wg.Add(1)
	go q.pump(wg)
	return q
}

// push schedules m for delivery at at; it is a no-op after close.
func (q *inbox) push(m Message, at time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.seq++
	q.heap = append(q.heap, pending{msg: m, at: at, seq: q.seq})
	if q.up(len(q.heap)-1) == 0 {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// dropFrom discards every pending message from the given sender.
func (q *inbox) dropFrom(from types.NodeID) {
	q.mu.Lock()
	defer q.mu.Unlock()
	kept := q.heap[:0]
	for _, p := range q.heap {
		if p.msg.From != from {
			kept = append(kept, p)
		}
	}
	clear(q.heap[len(kept):])
	q.heap = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// close drops the pending messages and ends the pump, which closes the
// Recv channel. It reports whether this call closed the inbox.
func (q *inbox) close() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.closed = true
	q.heap = nil
	close(q.done)
	return true
}

// next pops the head if it is due. Otherwise it returns how long until
// the head is due, or zero when the inbox is empty.
func (q *inbox) next() (m Message, wait time.Duration, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.heap) == 0 {
		return Message{}, 0, false
	}
	if wait := time.Until(q.heap[0].at); wait > 0 {
		return Message{}, wait, false
	}
	m = q.heap[0].msg
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = pending{} // the backing array must not keep a delivered message alive
	q.heap = q.heap[:last]
	q.down(0)
	return m, 0, true
}

func (q *inbox) pump(wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(q.out)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		m, wait, ok := q.next()
		switch {
		case ok:
			select {
			case q.out <- m:
			case <-q.done:
				return
			}
		case wait > 0:
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-q.wake:
				timer.Stop()
			case <-q.done:
				return
			}
		default:
			select {
			case <-q.wake:
			case <-q.done:
				return
			}
		}
	}
}

func (q *inbox) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

// up sifts element i toward the root and returns its final index.
func (q *inbox) up(i int) int {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
	return i
}

func (q *inbox) down(i int) {
	for {
		least, l := i, 2*i+1
		if l < len(q.heap) && q.less(l, least) {
			least = l
		}
		if r := l + 1; r < len(q.heap) && q.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		q.heap[i], q.heap[least] = q.heap[least], q.heap[i]
		i = least
	}
}
