package consensus

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestDeliveryQueueReleasesDelivered checks that an entry the consumer
// has taken is collectable while the queue lives on with later entries
// still pending: the backing array must not keep a delivered payload
// reachable (an orderer's delivered transactions would otherwise outlive
// their block until the array is reallocated).
func TestDeliveryQueueReleasesDelivered(t *testing.T) {
	q := NewDeliveryQueue()
	defer q.Close()
	const pushed, taken = 200, 100
	ptrs := make([]weak.Pointer[byte], pushed)
	for i := range ptrs {
		payload := make([]byte, 256)
		payload[0] = byte(i)
		ptrs[i] = weak.Make(&payload[0])
		q.Push(Entry{Seq: uint64(i + 1), Payload: payload})
	}
	time.Sleep(20 * time.Millisecond) // let the pump fill the consumer channel
	func() {
		for i := 0; i < taken; i++ {
			e := <-q.Out()
			if e.Seq != uint64(i+1) {
				t.Fatalf("entry %d delivered as sequence %d", i, e.Seq)
			}
		}
	}()
	runtime.GC()
	runtime.GC()
	for i := 0; i < taken; i++ {
		if ptrs[i].Value() != nil {
			t.Fatalf("delivered entry %d is still reachable from the queue", i)
		}
	}
}

// TestDeliveryQueueDrainsAfterClose: entries pushed before Close are
// still delivered, in order, and Out closes once they are drained;
// pushes after Close are dropped.
func TestDeliveryQueueDrainsAfterClose(t *testing.T) {
	q := NewDeliveryQueue()
	for i := 1; i <= 3; i++ {
		q.Push(Entry{Seq: uint64(i)})
	}
	q.Close()
	q.Push(Entry{Seq: 99})
	var got []uint64
	for e := range q.Out() {
		got = append(got, e.Seq)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("drained %v, want [1 2 3]", got)
	}
}
