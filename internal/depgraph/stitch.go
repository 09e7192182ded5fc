package depgraph

// This file implements the cross-block stitcher used by the pipelined
// executor: while the per-block Graph orders the transactions *within* one
// block, a window of in-flight blocks additionally needs edges from a
// later block's transactions to conflicting, still-uncommitted
// transactions of earlier blocks. The conflict rules are exactly the
// block-local ones (read-write, write-read, write-write for Standard;
// earlier-write/later-read for MultiVersion), applied across the block
// boundary, and the same indexed construction keeps the cost linear in
// the access-set sizes.
//
// The stitcher is not concurrency-safe; the executor's actor loop owns
// it, admitting blocks in strictly increasing number order and removing
// each block when it finalizes. Removal is what keeps the index bounded
// by the pipeline window: a finalized block's writes live in the
// committed store, so no future transaction needs an ordering edge to it.

// TxRef identifies one transaction across the in-flight window: the block
// it belongs to and its index within that block.
type TxRef struct {
	// Block is the block number.
	Block uint64
	// Index is the transaction's position within the block.
	Index int32
}

// stitchKey is the per-key index entry, the cross-block analogue of
// Build's keyState: the last writer and the readers since that write
// (Standard), or every in-flight writer (MultiVersion).
type stitchKey struct {
	lastWriter TxRef
	hasWriter  bool
	readers    []TxRef
	writers    []TxRef // MultiVersion only
}

func (st *stitchKey) empty() bool {
	return !st.hasWriter && len(st.readers) == 0 && len(st.writers) == 0
}

// Stitcher tracks the access sets of a window of in-flight blocks and
// derives the cross-block ordering edges each newly admitted block needs.
type Stitcher struct {
	mode    Mode
	keys    map[string]*stitchKey
	touched map[uint64][]string // keys each in-flight block touched, for Remove
	scratch map[TxRef]bool      // per-transaction predecessor dedup
}

// NewStitcher returns an empty stitcher for the given conflict mode.
func NewStitcher(mode Mode) *Stitcher {
	return &Stitcher{
		mode:    mode,
		keys:    make(map[string]*stitchKey),
		touched: make(map[uint64][]string),
		scratch: make(map[TxRef]bool, 8),
	}
}

func (s *Stitcher) key(k string, num uint64) *stitchKey {
	st, ok := s.keys[k]
	if !ok {
		st = &stitchKey{}
		s.keys[k] = st
	}
	s.touched[num] = append(s.touched[num], k)
	return st
}

// AddBlock indexes one block's access sets and returns, for each
// transaction, its predecessors among the still-indexed transactions of
// earlier blocks (within-block dependencies are the per-block Graph's
// job and are never reported). Blocks must be added in increasing number
// order; duplicate keys within a set are tolerated.
//
// Like Build, the returned edges are a transitive reduction relative to
// the index: a key's intra-block final writer stands in for the earlier
// cross-block accesses it already ordered itself after.
func (s *Stitcher) AddBlock(num uint64, sets []RWSet) [][]TxRef {
	preds := make([][]TxRef, len(sets))
	for j := range sets {
		self := TxRef{Block: num, Index: int32(j)}
		clear(s.scratch)
		if s.mode == MultiVersion {
			// Only earlier-write -> later-read pairs are ordered.
			for _, k := range sets[j].Reads {
				if st, ok := s.keys[k]; ok {
					for _, w := range st.writers {
						s.scratch[w] = true
					}
				}
			}
		} else {
			for _, k := range sets[j].Reads {
				if st, ok := s.keys[k]; ok && st.hasWriter {
					s.scratch[st.lastWriter] = true
				}
			}
			for _, k := range sets[j].Writes {
				if st, ok := s.keys[k]; ok {
					if st.hasWriter {
						s.scratch[st.lastWriter] = true
					}
					for _, r := range st.readers {
						s.scratch[r] = true
					}
				}
			}
		}
		for ref := range s.scratch {
			if ref.Block == num {
				continue // intra-block edge: owned by the block's Graph
			}
			preds[j] = append(preds[j], ref)
		}
		// Index j's own accesses so later transactions (and blocks) order
		// after it. Mirrors Build: a Standard-mode write installs j as the
		// key's last writer and clears the reader list (conflicts with
		// those readers are implied transitively through j).
		if s.mode == MultiVersion {
			for _, k := range sets[j].Writes {
				st := s.key(k, num)
				st.writers = append(st.writers, self)
			}
		} else {
			for _, k := range sets[j].Writes {
				st := s.key(k, num)
				st.lastWriter = self
				st.hasWriter = true
				st.readers = st.readers[:0]
			}
			for _, k := range sets[j].Reads {
				st := s.key(k, num)
				if st.hasWriter && st.lastWriter == self {
					continue // read-own-write adds nothing
				}
				if n := len(st.readers); n > 0 && st.readers[n-1] == self {
					continue // duplicate read key
				}
				st.readers = append(st.readers, self)
			}
		}
	}
	return preds
}

// Remove purges one block's accesses from the index, called when the
// block finalizes. Transactions of a finalized block need no ordering
// edges from future blocks: their effects are in the committed store.
func (s *Stitcher) Remove(num uint64) {
	for _, k := range s.touched[num] {
		st, ok := s.keys[k]
		if !ok {
			continue
		}
		if st.hasWriter && st.lastWriter.Block == num {
			st.hasWriter = false
			st.lastWriter = TxRef{}
		}
		st.readers = dropBlockRefs(st.readers, num)
		st.writers = dropBlockRefs(st.writers, num)
		if st.empty() {
			delete(s.keys, k)
		}
	}
	delete(s.touched, num)
}

// dropBlockRefs filters refs belonging to one block, in place.
func dropBlockRefs(refs []TxRef, num uint64) []TxRef {
	out := refs[:0]
	for _, r := range refs {
		if r.Block != num {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Len returns the number of keys currently indexed (for tests asserting
// the window stays bounded).
func (s *Stitcher) Len() int { return len(s.keys) }
