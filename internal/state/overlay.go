package state

import (
	"fmt"
	"math"
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
// The overlay is built at admission from the declared write sets: one
// slot per (transaction, declared write key), in block order, each key's
// slots chained newest first. Declared sets are enforced upstream
// (contract.Registry aborts a result that writes outside op.Writes, and
// COMMIT intake does not count such a vote), so recording a result only
// stores a pointer into a slot that already exists; recording an
// undeclared key is a programming error and panics.
//
// A reader bound to a transaction index (At) observes only writes
// strictly below its index — the state a sequential execution of the
// block's prefix would leave behind — which stays correct even when
// executions land out of graph order: a transaction whose worker is still
// running while a successor records its writes (a remote quorum satisfied
// it early), or one the speculative scheduler re-executes after a
// mismatch, must not read its successors' values. The unbound Get returns
// the highest write per key, the block's net effect, which is what
// chained later-block overlays and Final consume.
//
// The key index and the chains are immutable; only each slot's value
// pointer changes, atomically, so readers take no lock. Publication is
// per key, not per call: a reader racing a multi-key Record may see some
// of its keys and not yet others. That is sufficient under the executor's
// contract, which callers must keep. A reader entitled to transaction i's
// writes — an in-block successor, or a cross-block successor through the
// window's conflict index — is dispatched only by fireSatisfied, which
// every call site runs after Record(i) has returned on the actor
// goroutine, and the work-queue hand-off is the happens-before edge that
// shows it all of i's keys. Every other concurrent reader is either
// masked by its At(bound) or declares no conflict with i.
//
// Pipelined execution chains overlays: an in-flight block's overlay uses
// its predecessor block's overlay as base, so reads fall through to the
// newest uncommitted write below. When the predecessor finalizes, Rebase
// swings the base to the store so the chain stays bounded by the
// pipeline window instead of growing with chain height.
//
// BlockOverlay follows the package-level zero-copy ownership contract:
// recorded KVs are retained by pointer and returned slices are shared.
type BlockOverlay struct {
	base  atomic.Pointer[Reader]
	head  map[types.Key]int32 // key → its newest slot
	slots []slot
	first []int32 // transaction i owns slots[first[i]:first[i+1]]
}

// slot is one transaction's declared write of one key. kv is nil until
// the transaction's result is recorded (and again after PurgeIdx); a
// recorded KV with a nil Val is a deletion.
type slot struct {
	key  types.Key
	idx  int32
	prev int32 // the key's next older slot, -1 for none
	kv   atomic.Pointer[types.KV]
}

// NewBlockOverlay returns an empty overlay for the block's transactions
// over the given base state — the committed store, or the preceding
// in-flight block's overlay when execution is pipelined.
func NewBlockOverlay(base Reader, txns []*types.Transaction) *BlockOverlay {
	n := 0
	for _, tx := range txns {
		n += len(tx.Op.Writes)
	}
	o := &BlockOverlay{
		head:  make(map[types.Key]int32, n),
		slots: make([]slot, n),
		first: make([]int32, len(txns)+1),
	}
	o.base.Store(&base)
	used := int32(0)
	for i, tx := range txns {
		o.first[i] = used
		for _, key := range tx.Op.Writes {
			prev, ok := o.head[key]
			if !ok {
				prev = -1
			}
			s := &o.slots[used]
			s.key, s.idx, s.prev = key, int32(i), prev
			o.head[key] = used
			used++
		}
	}
	o.first[len(txns)] = used
	return o
}

// newest returns the newest write of key recorded strictly below bound,
// or nil when the overlay holds none.
func (o *BlockOverlay) newest(key types.Key, bound int) *types.KV {
	s, ok := o.head[key]
	if !ok {
		return nil
	}
	for ; s >= 0; s = o.slots[s].prev {
		if int(o.slots[s].idx) < bound {
			if kv := o.slots[s].kv.Load(); kv != nil {
				return kv
			}
		}
	}
	return nil
}

// read resolves key through the overlay below bound, then the base.
func (o *BlockOverlay) read(key types.Key, bound int) ([]byte, bool) {
	if kv := o.newest(key, bound); kv != nil {
		return kv.Val, kv.Val != nil // a nil Val is a deletion
	}
	return (*o.base.Load()).Get(key)
}

// Get returns the key's value as the block's net effect so far: the
// highest-index overlay write if present, otherwise the base's value.
func (o *BlockOverlay) Get(key types.Key) ([]byte, bool) {
	return o.read(key, math.MaxInt)
}

// At returns the read view of the transaction at the given block index:
// overlay writes at or above the index are invisible, so the transaction
// observes exactly the state its dependency-graph prefix produced,
// regardless of the order executions actually landed in. The view is
// cheap to create (it captures only the overlay pointer and the bound).
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
	return v.o.read(key, v.bound)
}

// Rebase atomically replaces the fall-through base. The caller must
// guarantee the new base already reflects everything the old base made
// visible (the pipelined executor rebases a block onto the committed
// store only after applying the finalized predecessor's writes to it),
// so concurrent readers see equivalent values through either base.
func (o *BlockOverlay) Rebase(base Reader) {
	o.base.Store(&base)
}

// Record stores a transaction's writes in its slots, retaining each KV by
// reference. Record is order-insensitive: results may arrive in any
// commit order and still converge to the sequential outcome. Recording an
// index a second time is last-call-wins per key: the quorum-committed
// result rules over a local one. Every key must be in the transaction's
// declared write set.
func (o *BlockOverlay) Record(idx int, writes []types.KV) {
	own := o.slots[o.first[idx]:o.first[idx+1]]
	for i := range writes {
		j := 0
		for j < len(own) && own[j].key != writes[i].Key {
			j++
		}
		if j == len(own) {
			panic(fmt.Sprintf("state: transaction %d records undeclared key %q", idx, writes[i].Key))
		}
		own[j].kv.Store(&writes[i])
	}
}

// PurgeIdx removes every overlay write by the given transaction index, so
// the speculative-execution scheduler can revoke one transaction's writes
// when its speculated result is invalidated (a committed digest diverged
// from the value dependents read, or the transaction is being
// re-executed). Older writes of the affected keys simply become visible
// again.
func (o *BlockOverlay) PurgeIdx(idx int) {
	own := o.slots[o.first[idx]:o.first[idx+1]]
	for i := range own {
		own[i].kv.Store(nil)
	}
}

// Final returns the overlay's net effect, one entry per written key in
// the order the block first declares the keys: deterministic across
// replicas, and ready to apply to the committed store when the block
// finalizes. The values are shared with the overlay; the commit path
// hands them straight to KVStore.Apply, transferring ownership.
func (o *BlockOverlay) Final() []types.KV {
	out := make([]types.KV, 0, len(o.head))
	for i := range o.slots {
		if o.slots[i].prev >= 0 {
			continue // not the key's first declaration
		}
		if kv := o.newest(o.slots[i].key, math.MaxInt); kv != nil {
			out = append(out, *kv)
		}
	}
	return out
}

var _ Reader = (*BlockOverlay)(nil)
