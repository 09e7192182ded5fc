package depgraph

import (
	"cmp"
	"slices"
)

// This file is the conflict index both roles run: the orderer over a
// one-block window (Builder), to derive each block's Graph as consensus
// delivers its transactions, and the executor over its pipeline window, to order a
// newly admitted block's transactions after conflicting, still in-flight
// transactions of earlier blocks. Per key it tracks the last writer and
// the readers since that write: write-write edges chain a key's writers,
// so the last one stands in transitively for every earlier writer and
// reader, which keeps the emitted edges' transitive closure equal to the
// full pairwise conflict relation at O(sum of access-set sizes) cost.

// TxRef identifies one transaction across a window of blocks: the block
// it belongs to and its index within that block.
type TxRef struct {
	// Block is the block number.
	Block uint64
	// Index is the transaction's position within the block.
	Index int32
}

func compareRefs(a, b TxRef) int {
	if c := cmp.Compare(a.Block, b.Block); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// keyState is one key's index entry, held by value in Index.state.
type keyState struct {
	key       string
	writer    TxRef
	hasWriter bool
	readers   []TxRef
	// listed is the newest block+1 whose touched list holds this slot,
	// and 0 while the slot is on the free list ("" is a valid key, so
	// the key cannot mark a free slot).
	listed uint64
}

// Index tracks the access sets of a window of blocks. Transactions are
// added in window order (increasing block, then increasing index), and a
// block leaves the window with Remove: a finalized block's writes live in
// the committed store, so nothing later needs an ordering edge to it.
// Index is not safe for concurrent use.
type Index struct {
	slots   map[string]int32
	state   []keyState
	free    []int32
	touched map[uint64][]int32 // slots each indexed block touched, for Remove
	preds   []TxRef            // Add's result, reused
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{slots: make(map[string]int32, 64), touched: make(map[uint64][]int32)}
}

// Len returns the number of keys currently indexed.
func (x *Index) Len() int { return len(x.slots) }

// Add returns tx's predecessors among the indexed transactions,
// deduplicated and sorted by (Block, Index), then indexes tx's own
// accesses. The returned slice is overwritten by the next Add.
func (x *Index) Add(tx TxRef, set RWSet) []TxRef {
	preds := x.preds[:0]
	for _, k := range set.Reads {
		if i, ok := x.slots[k]; ok && x.state[i].hasWriter {
			preds = append(preds, x.state[i].writer)
		}
	}
	for _, k := range set.Writes {
		if i, ok := x.slots[k]; ok {
			st := &x.state[i]
			if st.hasWriter {
				preds = append(preds, st.writer)
			}
			preds = append(preds, st.readers...)
		}
	}
	if len(preds) > 1 {
		slices.SortFunc(preds, compareRefs)
		preds = slices.Compact(preds)
	}
	x.preds = preds

	// A write makes tx the key's last writer and clears its readers:
	// later conflicts with them are implied transitively through tx.
	for _, k := range set.Writes {
		st := x.slot(k, tx.Block)
		st.writer, st.hasWriter = tx, true
		st.readers = st.readers[:0]
	}
	for _, k := range set.Reads {
		st := x.slot(k, tx.Block)
		if st.hasWriter && st.writer == tx {
			continue // read-own-write adds nothing
		}
		if n := len(st.readers); n > 0 && st.readers[n-1] == tx {
			continue // duplicate read key
		}
		st.readers = append(st.readers, tx)
	}
	return preds
}

// slot returns k's entry, creating it from the free list if k is new,
// and records it on block's touched list.
func (x *Index) slot(k string, block uint64) *keyState {
	i, ok := x.slots[k]
	if !ok {
		if n := len(x.free); n > 0 {
			i = x.free[n-1]
			x.free = x.free[:n-1]
		} else {
			i = int32(len(x.state))
			x.state = append(x.state, keyState{})
		}
		x.state[i].key = k
		x.slots[k] = i
	}
	st := &x.state[i]
	if st.listed != block+1 {
		st.listed = block + 1
		x.touched[block] = append(x.touched[block], i)
	}
	return st
}

// Remove drops one block's transactions from the index and frees the
// entries of keys no remaining transaction touches.
func (x *Index) Remove(block uint64) {
	for _, i := range x.touched[block] {
		st := &x.state[i]
		if st.listed == 0 {
			continue // freed by an earlier Remove
		}
		if st.hasWriter && st.writer.Block == block {
			st.hasWriter = false
		}
		st.readers = slices.DeleteFunc(st.readers, func(r TxRef) bool { return r.Block == block })
		if !st.hasWriter && len(st.readers) == 0 {
			delete(x.slots, st.key)
			*st = keyState{readers: st.readers}
			x.free = append(x.free, i)
		}
	}
	delete(x.touched, block)
}
