package state

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"

	"parblockchain/internal/types"
)

// BlockOverlay layers the in-flight results of one block's transactions
// over the committed store. During OXII execution a transaction must read
// the values written by its dependency-graph predecessors, which may be
// locally executed but not yet globally committed; the overlay provides
// that view without mutating the committed state until the whole block
// finalizes.
//
// Writes are tagged with the writing transaction's index in the block and
// retained per key as an index-sorted version list. A reader bound to a
// transaction index (At) observes only writes strictly below its index —
// the state a sequential execution of the block's prefix would leave
// behind — which stays correct even when executions land out of graph
// order: a transaction whose worker is still running while a successor
// records its writes (a remote quorum satisfied it early), or one the
// speculative scheduler re-executes after a mismatch, must not read its
// successors' values through the overlay. The unbound Get returns the
// highest write per key, the block's net effect, which is what chained
// later-block overlays and Final consume.
//
// Each key owns an immutable, index-ascending version list that writers
// replace whole and publish atomically under that key alone. Readers load
// the list and scan it — no lock, no read-modify-write, nothing shared
// with readers of other keys — and Record and PurgeIdx cost O(keys the
// call touches) in time and allocation, however many keys the block has
// already written: the writer keeps an idx → keys list so revocation
// never scans the overlay.
//
// Publication is therefore per key, not per call: a reader racing a
// multi-key Record may see some of its keys and not yet others. That is
// sufficient under the executor's contract, which callers must keep. A
// reader entitled to transaction i's writes — an in-block successor, or a
// cross-block successor through the window's conflict index — is
// dispatched only by fireSatisfied, which every call site runs after
// Record(i) has returned on the actor goroutine, and the work-queue
// hand-off is the happens-before edge that shows it all of i's keys.
// Every other concurrent reader is either masked by its At(bound) or
// declares no conflict with i.
//
// Pipelined execution chains overlays: an in-flight block's overlay uses
// its predecessor block's overlay as base, so reads fall through to the
// newest uncommitted write below. When the predecessor finalizes (its
// writes now live in the committed store), Rebase swings the base to the
// store so the chain stays bounded by the pipeline window instead of
// growing with chain height.
//
// BlockOverlay follows the package-level zero-copy ownership contract:
// recorded write sets are retained by reference and returned slices are
// shared.
type BlockOverlay struct {
	base atomic.Pointer[Reader]

	keys sync.Map     // types.Key → []overlayWrite, never empty
	n    atomic.Int64 // keys present

	mu    sync.Mutex          // serializes writers
	byIdx map[int][]types.Key // keys holding an entry by each index; under mu
}

// overlayWrite is one transaction's write of one key. Per-key lists are
// ascending in idx and immutable once published.
type overlayWrite struct {
	val []byte
	idx int
}

// NewBlockOverlay returns an empty overlay over the given base state —
// the committed store, or the preceding in-flight block's overlay when
// execution is pipelined.
func NewBlockOverlay(base Reader) *BlockOverlay {
	o := &BlockOverlay{byIdx: make(map[int][]types.Key)}
	o.base.Store(&base)
	return o
}

// versions returns the key's published version list, nil when the overlay
// holds no write of it. Lock-free.
func (o *BlockOverlay) versions(key types.Key) []overlayWrite {
	if vs, ok := o.keys.Load(key); ok {
		return vs.([]overlayWrite)
	}
	return nil
}

// Get returns the key's value as the block's net effect so far: the
// highest-index overlay write if present, otherwise the base's value.
// Lock-free.
func (o *BlockOverlay) Get(key types.Key) ([]byte, bool) {
	if vs := o.versions(key); len(vs) > 0 {
		w := vs[len(vs)-1]
		if w.val == nil {
			return nil, false // deletion
		}
		return w.val, true
	}
	return (*o.base.Load()).Get(key)
}

// At returns the read view of the transaction at the given block index:
// overlay writes at or above the index are invisible, so the transaction
// observes exactly the state its dependency-graph prefix produced,
// regardless of the order executions actually landed in. The view is
// lock-free and cheap to create (it captures only the overlay pointer and
// the bound).
func (o *BlockOverlay) At(idx int) Reader {
	return boundedView{o: o, bound: idx}
}

type boundedView struct {
	o     *BlockOverlay
	bound int
}

// Get returns the newest value written strictly below the view's index,
// falling through to the base when no such write exists.
func (v boundedView) Get(key types.Key) ([]byte, bool) {
	// Scan from the top: version lists are ascending in idx and short
	// (multiple same-key writers imply dependency edges, so long lists
	// only occur on heavily contended keys).
	vs := v.o.versions(key)
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].idx < v.bound {
			if vs[i].val == nil {
				return nil, false // deletion
			}
			return vs[i].val, true
		}
	}
	// Every overlay write of this key sits at or above the bound.
	return (*v.o.base.Load()).Get(key)
}

// Rebase atomically replaces the fall-through base. The caller must
// guarantee the new base already reflects everything the old base made
// visible (the pipelined executor rebases a block onto the committed
// store only after applying the finalized predecessor's writes to it),
// so concurrent readers see equivalent values through either base.
func (o *BlockOverlay) Rebase(base Reader) {
	o.base.Store(&base)
}

// Record merges a transaction's writes into the overlay, inserting each
// value into its key's version list. Record is order-insensitive: results
// may arrive in any commit order and still converge to the sequential
// outcome. Recording an index a second time is a no-op for a byte-equal
// value (a commit re-recording what local execution recorded) and
// last-call-wins for a different one: the quorum-committed result rules
// over a local one.
func (o *BlockOverlay) Record(idx int, writes []types.KV) {
	if len(writes) == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, kv := range writes {
		cur := o.versions(kv.Key)
		// Lists are short and new writes mostly land on top: find the
		// slot from the top.
		at := len(cur)
		for at > 0 && cur[at-1].idx >= idx {
			at--
		}
		above := cur[at:]
		if len(above) > 0 && above[0].idx == idx {
			if sameValue(above[0].val, kv.Val) {
				continue
			}
			above = above[1:] // replaced
		} else {
			o.byIdx[idx] = append(o.byIdx[idx], kv.Key)
		}
		// A fresh list: cur may be visible to concurrent readers.
		next := make([]overlayWrite, 0, len(cur)+1)
		next = append(next, cur[:at]...)
		next = append(next, overlayWrite{val: kv.Val, idx: idx})
		next = append(next, above...)
		o.keys.Store(kv.Key, next)
		if len(cur) == 0 {
			o.n.Add(1)
		}
	}
}

// sameValue reports byte equality, telling a deletion (nil) from an empty
// value.
func sameValue(a, b []byte) bool {
	return (a == nil) == (b == nil) && bytes.Equal(a, b)
}

// PurgeIdx removes every overlay write by the given transaction index, so
// the speculative-execution scheduler can revoke one transaction's writes
// when its speculated result is invalidated (a committed digest diverged
// from the value dependents read, or the transaction is being
// re-executed). Older versions of the affected keys simply become visible
// again. Each affected key's shortened list is published the way Record
// publishes, so concurrent lock-free readers stay safe.
func (o *BlockOverlay) PurgeIdx(idx int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, key := range o.byIdx[idx] {
		cur := o.versions(key)
		if len(cur) == 1 {
			o.keys.Delete(key)
			o.n.Add(-1)
			continue
		}
		next := make([]overlayWrite, 0, len(cur)-1)
		for _, w := range cur {
			if w.idx != idx {
				next = append(next, w)
			}
		}
		o.keys.Store(key, next)
	}
	delete(o.byIdx, idx)
}

// Final returns the overlay's net effect as a deterministic, key-sorted
// batch, ready to apply to the committed store when the block finalizes.
// The values are shared with the overlay; the commit path hands them
// straight to KVStore.Apply, transferring ownership.
func (o *BlockOverlay) Final() []types.KV {
	out := make([]types.KV, 0, o.Len())
	o.keys.Range(func(k, v any) bool {
		vs := v.([]overlayWrite)
		out = append(out, types.KV{Key: k.(types.Key), Val: vs[len(vs)-1].val})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len returns the number of distinct keys written in the overlay.
func (o *BlockOverlay) Len() int {
	return int(o.n.Load())
}

var _ Reader = (*BlockOverlay)(nil)
