package execution

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"parblockchain/internal/contract"
	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// seededQueue is the test fake behind TestSeededDispatchEquivalence. It
// ignores the dependents-first hint, pops a seeded-random queued item,
// and holds the popping worker for a seeded 0–50 µs before handing the
// item over, so each seed drives a dispatch order and a worker
// interleaving that neither the production queue nor FIFO produces.
type seededQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	rng    *rand.Rand
	items  []workItem
	closed bool
}

func newSeededQueue(seed int64) *seededQueue {
	q := &seededQueue{rng: rand.New(rand.NewSource(seed))}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *seededQueue) Push(item workItem, _ bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append(q.items, item)
	q.cond.Signal()
}

func (q *seededQueue) Pop() (workItem, bool) {
	q.mu.Lock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		q.mu.Unlock()
		return workItem{}, false
	}
	i, last := q.rng.Intn(len(q.items)), len(q.items)-1
	item := q.items[i]
	q.items[i], q.items[last] = q.items[last], workItem{}
	q.items = q.items[:last]
	deadline := time.Now().Add(time.Duration(q.rng.Intn(51)) * time.Microsecond)
	q.mu.Unlock()
	// A yielding spin, not time.Sleep: the timer rounds a sleep this short
	// up to about a millisecond, which would serialize every chain hop.
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return item, true
}

func (q *seededQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

func (q *seededQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// TestReadyQueueOrder pins the dependents-first policy on the queue
// itself: items something waits on pop first, most recent first; the
// rest pop in discovery order; Close stops intake but drains what is
// queued.
func TestReadyQueueOrder(t *testing.T) {
	q := newReadyQueue()
	pop := func() int {
		t.Helper()
		item, ok := q.Pop()
		if !ok {
			t.Fatal("Pop on a non-empty queue reported closed")
		}
		return item.idx
	}
	for _, p := range []struct {
		idx   int
		first bool
	}{{0, false}, {1, false}, {10, true}, {2, false}, {11, true}, {3, false}} {
		q.Push(workItem{idx: p.idx}, p.first)
	}
	if q.Len() != 6 {
		t.Fatalf("Len = %d, want 6", q.Len())
	}
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, pop())
	}
	if want := []int{11, 10, 0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}

	// A dependent pushed behind queued cold work still pops next.
	q.Push(workItem{idx: 4}, false)
	q.Push(workItem{idx: 5}, false)
	if got := pop(); got != 4 {
		t.Fatalf("pop = %d, want 4", got)
	}
	q.Push(workItem{idx: 12}, true)
	if got := pop(); got != 12 {
		t.Fatalf("pop = %d, want the dependent 12 ahead of 5", got)
	}

	q.Push(workItem{idx: 13}, true)
	q.Close()
	q.Push(workItem{idx: 14}, true) // after Close: dropped
	for _, want := range []int{13, 5} {
		if got := pop(); got != want {
			t.Fatalf("drain pop = %d, want %d", got, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on a closed, drained queue returned an item")
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", q.Len())
	}
}

// TestReadyQueuePopReleasesItems checks that neither end of the queue
// keeps a popped item's block state reachable through its backing array.
func TestReadyQueuePopReleasesItems(t *testing.T) {
	for _, first := range []bool{true, false} {
		q := newReadyQueue()
		// The stack pops the newer item and the FIFO the older one; the
		// other stays queued, so the backing array stays in use.
		popped := func() weak.Pointer[blockState] {
			q.Push(workItem{bs: &blockState{num: 1}}, first)
			q.Push(workItem{bs: &blockState{num: 2}}, first)
			item, _ := q.Pop()
			return weak.Make(item.bs)
		}()
		runtime.GC()
		runtime.GC()
		if popped.Value() != nil {
			t.Fatalf("first=%v: a popped item is still reachable from the queue", first)
		}
		if q.Len() != 1 {
			t.Fatalf("first=%v: Len = %d, want 1", first, q.Len())
		}
	}
}

// TestDependentsFirstDispatch pins the policy end to end. One block
// holds 32 independent fillers followed by a five-transaction chain on
// one hot key (four links); the chain's head is indexed after every
// filler, so discovery order queues it last. With a single worker and
// fillers that each take a millisecond, every chain transaction another
// one waits on must still run before the last filler: each link becomes
// ready while a filler runs and jumps the queued fillers. The chain's
// tail, which nothing waits on, keeps discovery order and is not pinned.
func TestDependentsFirstDispatch(t *testing.T) {
	const fillers, chain = 32, 5
	var (
		mu    sync.Mutex
		order []string
	)
	registry := contract.NewRegistry()
	registry.Install("app1", contract.Func(func(view state.Reader, op types.Operation) ([]types.KV, error) {
		label := op.Params[1]
		if strings.HasPrefix(label, "f") {
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		order = append(order, label)
		mu.Unlock()
		return contract.NewKV().Execute(view, op)
	}))
	var txns []*types.Transaction
	add := func(op types.Operation) {
		n := len(txns)
		txns = append(txns, &types.Transaction{
			ID: types.TxID(fmt.Sprintf("tx-%d", n)), App: "app1", Client: "c1",
			ClientTS: uint64(n + 1), Op: op,
		})
	}
	for i := 0; i < fillers; i++ {
		add(contract.PutOp(fmt.Sprintf("cold-%d", i), fmt.Sprintf("f%d", i)))
	}
	for i := 0; i < chain; i++ {
		add(contract.AppendOp("hot", fmt.Sprintf("c%d", i)))
	}
	runPipelined(t, 1, "", nil, [][]*types.Transaction{txns}, func(c *Config) {
		c.Registry = registry
		c.Workers = 1
	})

	mu.Lock()
	defer mu.Unlock()
	lastFiller := -1
	at := make(map[string]int, len(order))
	for i, label := range order {
		at[label] = i
		if strings.HasPrefix(label, "f") {
			lastFiller = i
		}
	}
	if len(order) != fillers+chain {
		t.Fatalf("%d executions, want %d: %v", len(order), fillers+chain, order)
	}
	for i := 0; i < chain-1; i++ {
		if link := fmt.Sprintf("c%d", i); at[link] > lastFiller {
			t.Fatalf("chain link %s ran at %d, after the last filler at %d: %v",
				link, at[link], lastFiller, order)
		}
	}
}
