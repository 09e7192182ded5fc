// This file implements the pluggable work scheduler between dispatch
// and the worker pool. The paper's executor (and this repo's, before
// the Config.Scheduler knob) drains ready transactions in discovery
// order; on the skewed graphs high-contention workloads produce that
// leaves cores idle behind long dependency chains while short
// independent work waits its turn. The two schedulers:
//
//   - fifo: discovery order, the equivalence baseline. Exactly the old
//     single eventq work queue.
//   - critical-path: max-height-first. Ready transactions pop in
//     descending critical-path height (the longest dependency chain
//     hanging below them, maintained incrementally across blocks by
//     depgraph.HeightTracker), out-degree breaking ties, discovery
//     order breaking those. The tallest ready transaction heads the
//     longest remaining chain, so running it first keeps the chain's
//     core busy while shorter independent work fills the other cores.
//
// Both schedulers preserve the eventq contract the worker pool was
// built on: non-blocking Push, blocking Pop, Close wakes all consumers
// and lets them drain remaining items. Schedulers never remove items:
// epoch-tagged re-dispatch under speculation cascades means a stale
// item can sit in a queue, get popped, execute, and have its result
// disowned by the actor's epoch check — exactly as with the FIFO queue.
// Ordering of ready transactions is the one freedom Algorithm 1 leaves
// the executor, which is why every scheduler is bit-identical to the
// sequential baseline (see TestSchedulerEquivalence).

package execution

import (
	"fmt"
	"sync"

	"parblockchain/internal/eventq"
)

// SchedulerKind selects the dispatch scheduler. The zero value is FIFO,
// the paper's discovery-order behavior.
type SchedulerKind uint8

const (
	// SchedFIFO executes ready transactions in discovery order.
	SchedFIFO SchedulerKind = iota
	// SchedCriticalPath executes the ready transaction with the longest
	// downstream dependency chain first.
	SchedCriticalPath
)

// SchedulerNames lists the accepted ParseScheduler spellings, for flag
// help and config validation messages.
var SchedulerNames = []string{"fifo", "critical-path"}

// String returns the canonical knob spelling.
func (k SchedulerKind) String() string {
	if k == SchedCriticalPath {
		return "critical-path"
	}
	return "fifo"
}

// ParseScheduler maps a knob string to its SchedulerKind. The empty
// string selects FIFO so zero-valued configs keep the old behavior.
func ParseScheduler(name string) (SchedulerKind, error) {
	switch name {
	case "", "fifo":
		return SchedFIFO, nil
	case "critical-path":
		return SchedCriticalPath, nil
	default:
		return SchedFIFO, fmt.Errorf("unknown scheduler %q (want one of %v)", name, SchedulerNames)
	}
}

// MarshalText and UnmarshalText spell the kind by its knob name, so a
// SchedulerKind field reads "critical-path" in cluster JSON and on a
// flag.TextVar command line.
func (k SchedulerKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a knob name (see ParseScheduler).
func (k *SchedulerKind) UnmarshalText(text []byte) (err error) {
	*k, err = ParseScheduler(string(text))
	return err
}

// scheduler is the ready queue between the actor loop's dispatch and
// the worker pool. Push never blocks and is a no-op after Close; Pop
// blocks until an item is available or the queue is closed and drained.
// prio orders critical-path popping (higher first); FIFO ignores it.
type scheduler interface {
	Push(item workItem, prio int64)
	Pop() (workItem, bool)
	Close()
	Len() int
}

// newScheduler builds the scheduler for a kind.
func newScheduler(kind SchedulerKind) scheduler {
	if kind == SchedCriticalPath {
		return newHeapSched()
	}
	return fifoSched{q: eventq.New[workItem]()}
}

// Claim-cell states for the critical-path scheduler's lazy priority
// refresh. Every heap entry carries a cell created at push time; the
// cell arbitrates, with a single CAS, between the worker that pops the
// entry and the actor that wants to re-push the same transaction at a
// fresher priority. A cell moves out of cellQueued exactly once, so a
// transaction has at most one live (poppable) entry at any time no
// matter how many stale duplicates still sit in the heap.
const (
	cellQueued int32 = iota // entry poppable at its push-time priority
	cellStale               // superseded by a re-push; skip when popped
	cellPopped              // claimed by a worker
)

// schedPriority packs a transaction's critical-path height and
// out-degree into one comparable key: height dominates, out-degree
// (clamped) breaks ties toward the transaction that unlocks more work.
func schedPriority(height, outDeg int32) int64 {
	const degBits = 20
	d := int64(outDeg)
	if d >= 1<<degBits {
		d = 1<<degBits - 1
	}
	return int64(height)<<degBits | d
}

// fifoSched adapts the original eventq work queue to the scheduler
// interface.
type fifoSched struct {
	q *eventq.Queue[workItem]
}

func (s fifoSched) Push(item workItem, _ int64) { s.q.Push(item) }
func (s fifoSched) Pop() (workItem, bool)       { return s.q.Pop() }
func (s fifoSched) Close()                      { s.q.Close() }
func (s fifoSched) Len() int                    { return s.q.Len() }

// heapSched is the critical-path scheduler: a binary max-heap on
// (priority, FIFO sequence), O(log n) push and pop under one mutex.
type heapSched struct {
	mu     sync.Mutex
	cond   *sync.Cond
	heap   []heapEntry
	seq    uint64
	closed bool
}

type heapEntry struct {
	item workItem
	prio int64
	seq  uint64
}

func newHeapSched() *heapSched {
	s := &heapSched{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// before orders the heap: higher priority first, earlier dispatch
// breaking ties so equal-priority work stays FIFO.
func (a heapEntry) before(b heapEntry) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

func (s *heapSched) Push(item workItem, prio int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.heap = append(s.heap, heapEntry{item: item, prio: prio, seq: s.seq})
	s.seq++
	// Sift up.
	for i := len(s.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.heap[i].before(s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
	s.cond.Signal()
}

func (s *heapSched) Pop() (workItem, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.heap) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.heap) == 0 {
			return workItem{}, false
		}
		top := s.heap[0].item
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heap[last] = heapEntry{} // release the *blockState reference
		s.heap = s.heap[:last]
		// Sift down.
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			best := i
			if l < last && s.heap[l].before(s.heap[best]) {
				best = l
			}
			if r < last && s.heap[r].before(s.heap[best]) {
				best = r
			}
			if best == i {
				break
			}
			s.heap[i], s.heap[best] = s.heap[best], s.heap[i]
			i = best
		}
		// Claim the entry. A failed CAS means the actor marked it stale
		// (the transaction was re-pushed at a fresher priority); drop it
		// and keep popping — the live duplicate is still in the heap.
		if top.cell == nil || top.cell.CompareAndSwap(cellQueued, cellPopped) {
			return top, true
		}
	}
}

func (s *heapSched) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
}

func (s *heapSched) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.heap)
}
