package execution

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestHeapSchedStaleSkip pins the claim-cell protocol behind the lazy
// priority refresh: an entry whose cell was swung to cellStale is
// dropped by Pop, the re-pushed duplicate surfaces at its fresh
// priority, and a cell a worker already claimed cannot be invalidated.
func TestHeapSchedStaleSkip(t *testing.T) {
	s := newHeapSched()
	newItem := func(idx int) workItem {
		return workItem{idx: idx, cell: new(atomic.Int32)}
	}

	// A stale entry outprioritizing everything must be skipped, not run.
	stale := newItem(1)
	s.Push(stale, 100)
	live := newItem(2)
	s.Push(live, 50)
	if !stale.cell.CompareAndSwap(cellQueued, cellStale) {
		t.Fatal("could not invalidate a queued cell")
	}
	got, ok := s.Pop()
	if !ok || got.idx != live.idx {
		t.Fatalf("Pop = (%d,%v), want the live item %d", got.idx, ok, live.idx)
	}
	if got.cell.Load() != cellPopped {
		t.Fatal("Pop returned an unclaimed item")
	}

	// Refresh shape: old entry invalidated, duplicate pushed with a fresh
	// cell at a higher priority — the duplicate wins over lower-priority
	// work, and exactly one of the pair pops.
	old := newItem(3)
	s.Push(old, 10)
	s.Push(newItem(4), 20)
	old.cell.Store(cellStale)
	fresh := workItem{idx: old.idx, cell: new(atomic.Int32)}
	s.Push(fresh, 30)
	if got, _ := s.Pop(); got.idx != old.idx || got.cell != fresh.cell {
		t.Fatalf("first pop = idx %d, want the refreshed entry %d", got.idx, old.idx)
	}
	if got, _ := s.Pop(); got.idx != 4 {
		t.Fatalf("second pop = idx %d, want 4 (stale duplicate skipped)", got.idx)
	}
	if s.Len() != 1 {
		t.Fatalf("heap holds %d entries, want the 1 stale leftover", s.Len())
	}

	// A popped cell cannot be marked stale: the CAS the actor performs
	// fails, so no duplicate push happens for claimed work.
	claimed := newItem(5)
	s.Push(claimed, 1)
	// Drain the stale leftover plus the claimed item.
	got, _ = s.Pop()
	if got.idx != claimed.idx {
		t.Fatalf("pop = idx %d, want %d", got.idx, claimed.idx)
	}
	if claimed.cell.CompareAndSwap(cellQueued, cellStale) {
		t.Fatal("invalidated a cell a worker already claimed")
	}

	// Close drains: remaining stale entries must not wedge Pop.
	wedge := newItem(6)
	s.Push(wedge, 1)
	wedge.cell.Store(cellStale)
	s.Close()
	if _, ok := s.Pop(); ok {
		t.Fatal("Pop returned an item from a closed, stale-only heap")
	}

	// A nil cell (defensive: non-critical-path items) pops normally.
	s2 := newHeapSched()
	s2.Push(workItem{idx: 7}, 1)
	if got, ok := s2.Pop(); !ok || got.idx != 7 {
		t.Fatalf("nil-cell pop = (%d,%v), want (7,true)", got.idx, ok)
	}
}

// TestParseScheduler pins the knob spellings: every name in
// SchedulerNames round-trips, and a removed or unknown name is an error
// that lists the accepted ones.
func TestParseScheduler(t *testing.T) {
	for _, name := range SchedulerNames {
		k, err := ParseScheduler(name)
		if err != nil || k.String() != name {
			t.Fatalf("ParseScheduler(%q) = (%v, %v), want %q", name, k, err, name)
		}
	}
	if k, err := ParseScheduler(""); err != nil || k != SchedFIFO {
		t.Fatalf("ParseScheduler(\"\") = (%v, %v), want fifo", k, err)
	}
	_, err := ParseScheduler("load-balanced")
	if err == nil {
		t.Fatal("ParseScheduler(\"load-balanced\") accepted a removed scheduler")
	}
	for _, name := range SchedulerNames {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
}
