package depgraph

import "sort"

// This file implements the incremental dependency-graph builder used by
// the orderer: instead of generating the whole graph at the block cut,
// the orderer extends it one transaction at a time as consensus delivers
// the ordered stream, so the graph is ready when the block is cut.
//
// Appender uses exactly the indexed construction of Build — for every key
// it tracks the last writer and the readers since that write (Standard),
// or every writer (MultiVersion) — so appending a block's access sets in
// any prefix split yields, edge for edge, the graph Build derives over
// the whole block. Build itself is implemented on top of Appender, which
// makes that equivalence hold by construction; the property tests in
// append_test.go additionally check both against the O(n^2) pairwise
// reference.

// keyState is the per-key index entry shared by Appender and Build.
// Standard mode tracks the last writer and the readers since that write,
// because write-write edges chain writers and make the last writer a
// transitive stand-in for its predecessors. MultiVersion mode tracks
// every writer: writers are mutually unordered there, so a reader
// depends on each of them directly.
type keyState struct {
	lastWriter int32 // -1 when the key has not been written
	readers    []int32
	writers    []int32 // MultiVersion only
}

// Appender builds a dependency graph incrementally, one transaction at a
// time, in block order. It is not safe for concurrent use; the orderer's
// delivery goroutine owns it.
type Appender struct {
	mode    Mode
	idx     map[string]*keyState
	scratch map[int32]bool
	succ    [][]int32
	pred    [][]int32
}

// NewAppender returns an empty appender for the given conflict mode.
func NewAppender(mode Mode) *Appender {
	return &Appender{
		mode:    mode,
		idx:     make(map[string]*keyState, 64),
		scratch: make(map[int32]bool, 8),
	}
}

// Len returns the number of transactions appended since the last Finish.
func (a *Appender) Len() int { return len(a.pred) }

func (a *Appender) state(k string) *keyState {
	st, ok := a.idx[k]
	if !ok {
		st = &keyState{lastWriter: -1}
		a.idx[k] = st
	}
	return st
}

// Append extends the graph with the next transaction's access sets (which
// must be normalized: sorted, duplicate-free) and returns its predecessor
// list in increasing order. The returned slice is freshly allocated (or
// nil) and safe to retain; it is exactly what Graph.Pred of the finished
// graph will hold for this index.
func (a *Appender) Append(set RWSet) []int32 {
	j := int32(len(a.pred))
	clear(a.scratch)
	if a.mode == Standard {
		for _, k := range set.Reads {
			if st := a.state(k); st.lastWriter >= 0 {
				a.scratch[st.lastWriter] = true
			}
		}
		for _, k := range set.Writes {
			st := a.state(k)
			if st.lastWriter >= 0 {
				a.scratch[st.lastWriter] = true
			}
			for _, r := range st.readers {
				a.scratch[r] = true
			}
		}
	} else {
		// MultiVersion: only earlier-write -> later-read is ordered, and
		// every earlier writer of a read key is a predecessor.
		for _, k := range set.Reads {
			for _, w := range a.state(k).writers {
				a.scratch[w] = true
			}
		}
	}
	delete(a.scratch, j) // a txn never depends on itself
	var preds []int32
	if len(a.scratch) > 0 {
		preds = make([]int32, 0, len(a.scratch))
		for p := range a.scratch {
			preds = append(preds, p)
		}
		sort.Slice(preds, func(x, y int) bool { return preds[x] < preds[y] })
	}
	a.pred = append(a.pred, preds)
	a.succ = append(a.succ, nil)
	for _, p := range preds {
		a.succ[p] = append(a.succ[p], j)
	}
	// Update the index with j's own accesses. In Standard mode writes
	// clear the reader list (subsequent conflicts with those readers are
	// implied transitively through j); in MultiVersion mode the writer
	// list only grows.
	if a.mode == Standard {
		for _, k := range set.Writes {
			st := a.state(k)
			st.lastWriter = j
			st.readers = st.readers[:0]
		}
		for _, k := range set.Reads {
			st := a.state(k)
			if st.lastWriter != j { // read-own-write adds nothing
				st.readers = append(st.readers, j)
			}
		}
	} else {
		for _, k := range set.Writes {
			st := a.state(k)
			st.writers = append(st.writers, j)
		}
	}
	return preds
}

// Finish returns the graph over every transaction appended so far and
// resets the appender for the next block. The returned graph owns the
// accumulated adjacency; the appender starts over empty.
func (a *Appender) Finish() *Graph {
	g := &Graph{N: len(a.pred), Succ: a.succ, Pred: a.pred}
	if g.Succ == nil {
		g.Succ = [][]int32{}
		g.Pred = [][]int32{}
	}
	a.succ = nil
	a.pred = nil
	clear(a.idx)
	return g
}
