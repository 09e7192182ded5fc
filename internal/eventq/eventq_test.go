package eventq

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"
)

func TestFIFOOrder(t *testing.T) {
	q := New[int]()
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d %v, want %d", v, ok, i)
		}
	}
}

// TestPopReleasesItem checks that a popped item is collectable while the
// queue that held it lives on: the backing array must not keep it
// reachable (an executor's popped block state or NEWBLOCK would
// otherwise outlive its block until the array is reallocated).
func TestPopReleasesItem(t *testing.T) {
	type payload struct{ buf [64]byte }
	q := New[*payload]()
	popped := func() weak.Pointer[payload] {
		p := &payload{}
		q.Push(p)
		q.Push(&payload{}) // a live successor keeps the backing array in use
		if got, _ := q.Pop(); got != p {
			t.Fatal("Pop returned the wrong item")
		}
		return weak.Make(p)
	}()
	runtime.GC()
	runtime.GC()
	if popped.Value() != nil {
		t.Fatal("a popped item is still reachable from the queue")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

func TestPopBlocksUntilPush(t *testing.T) {
	q := New[string]()
	done := make(chan string, 1)
	go func() {
		v, _ := q.Pop()
		done <- v
	}()
	select {
	case <-done:
		t.Fatal("Pop returned before Push")
	case <-time.After(20 * time.Millisecond):
	}
	q.Push("hello")
	select {
	case v := <-done:
		if v != "hello" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Pop never woke")
	}
}

func TestCloseDrainsThenEnds(t *testing.T) {
	q := New[int]()
	q.Push(1)
	q.Push(2)
	q.Close()
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatal("pending items must drain after Close")
	}
	if v, ok := q.Pop(); !ok || v != 2 {
		t.Fatal("pending items must drain after Close")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("drained closed queue must report done")
	}
}

func TestPushAfterCloseIgnored(t *testing.T) {
	q := New[int]()
	q.Close()
	q.Push(1)
	if _, ok := q.Pop(); ok {
		t.Fatal("push after close must be dropped")
	}
	if q.Len() != 0 {
		t.Fatal("Len after close must be 0")
	}
}

func TestCloseWakesBlockedConsumers(t *testing.T) {
	q := New[int]()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Pop()
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close did not wake blocked consumers")
	}
}

func TestManyProducersOneConsumer(t *testing.T) {
	q := New[int]()
	const producers, each = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q.Push(1)
			}
		}()
	}
	total := 0
	done := make(chan struct{})
	go func() {
		for total < producers*each {
			if _, ok := q.Pop(); !ok {
				return
			}
			total++
		}
		close(done)
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("consumed %d of %d", total, producers*each)
	}
}

func TestLen(t *testing.T) {
	q := New[int]()
	if q.Len() != 0 {
		t.Fatal("empty queue Len != 0")
	}
	q.Push(1)
	q.Push(2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	q.Pop()
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}
