package depgraph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func ref(block uint64, idx int32) TxRef { return TxRef{Block: block, Index: idx} }

// addBlock runs one block through the index as the executor does and
// returns, per transaction, its predecessors in earlier blocks (the
// block's own Graph orders it internally).
func addBlock(x *Index, num uint64, sets []RWSet) [][]TxRef {
	out := make([][]TxRef, len(sets))
	for j, s := range sets {
		for _, p := range x.Add(ref(num, int32(j)), s) {
			if p.Block != num {
				out[j] = append(out[j], p)
			}
		}
	}
	return out
}

// orderBlock runs one block through a Builder as the orderer does: Add
// each transaction as it is delivered, then Cut.
func orderBlock(b *Builder, sets []RWSet) *Graph {
	for _, s := range sets {
		b.Add(s)
	}
	return b.Cut()
}

func TestStitchCrossBlockConflictRules(t *testing.T) {
	x := NewIndex()
	// Block 0: t0 writes a, t1 reads b.
	got := addBlock(x, 0, []RWSet{
		{Writes: []string{"a"}},
		{Reads: []string{"b"}},
	})
	if len(got[0]) != 0 || len(got[1]) != 0 {
		t.Fatalf("first block must have no cross-block preds: %v", got)
	}
	// Block 1: write-read (a), write-write would chain through readers
	// (b), and an untouched key (c).
	got = addBlock(x, 1, []RWSet{
		{Reads: []string{"a"}},  // reads block0's write: edge to (0,0)
		{Writes: []string{"b"}}, // writes a key block0 read: edge to (0,1)
		{Writes: []string{"c"}}, // fresh key: no edge
	})
	if !reflect.DeepEqual(got[0], []TxRef{ref(0, 0)}) {
		t.Fatalf("read-after-write pred = %v, want [(0,0)]", got[0])
	}
	if !reflect.DeepEqual(got[1], []TxRef{ref(0, 1)}) {
		t.Fatalf("write-after-read pred = %v, want [(0,1)]", got[1])
	}
	if len(got[2]) != 0 {
		t.Fatalf("fresh key must have no preds: %v", got[2])
	}
}

func TestStitchIntraBlockConflictsNotReported(t *testing.T) {
	got := addBlock(NewIndex(), 0, []RWSet{
		{Writes: []string{"k"}},
		{Reads: []string{"k"}, Writes: []string{"k"}},
	})
	if len(got[0]) != 0 || len(got[1]) != 0 {
		t.Fatalf("intra-block conflicts belong to the per-block graph: %v", got)
	}
}

func TestStitchLaterWriterShadowsEarlierBlock(t *testing.T) {
	x := NewIndex()
	addBlock(x, 0, []RWSet{{Writes: []string{"k"}}})
	addBlock(x, 1, []RWSet{{Writes: []string{"k"}}})
	got := addBlock(x, 2, []RWSet{{Reads: []string{"k"}}})
	// Block 1's writer stands in for block 0's transitively.
	if !reflect.DeepEqual(got[0], []TxRef{ref(1, 0)}) {
		t.Fatalf("preds = %v, want only the newest writer (1,0)", got[0])
	}
}

func TestStitchRemovePurgesFinalizedBlock(t *testing.T) {
	x := NewIndex()
	addBlock(x, 0, []RWSet{{Writes: []string{"k"}}, {Reads: []string{"r"}}})
	x.Remove(0)
	if x.Len() != 0 {
		t.Fatalf("index holds %d keys after removing the only block", x.Len())
	}
	got := addBlock(x, 1, []RWSet{{Reads: []string{"k"}, Writes: []string{"r"}}})
	if len(got[0]) != 0 {
		t.Fatalf("finalized block must impose no edges: %v", got[0])
	}
}

func TestStitchRemoveKeepsLaterBlocksIndexed(t *testing.T) {
	x := NewIndex()
	addBlock(x, 0, []RWSet{{Writes: []string{"k"}}})
	addBlock(x, 1, []RWSet{{Reads: []string{"k"}}})
	x.Remove(0)
	// Block 1's read survives the purge: a later writer of k must still
	// order after it.
	got := addBlock(x, 2, []RWSet{{Writes: []string{"k"}}})
	if !reflect.DeepEqual(got[0], []TxRef{ref(1, 0)}) {
		t.Fatalf("preds = %v, want block 1's reader", got[0])
	}
}

// TestIndexCrossPredsSortedAndRepeatable: a writer behind many in-flight
// readers gets every one of them back, sorted by (Block, Index), and the
// same list on every run — the executor's cross-block edges, and with
// them its dispatch-time lineage order, must not depend on map order.
func TestIndexCrossPredsSortedAndRepeatable(t *testing.T) {
	readers := make([]RWSet, 24)
	for i := range readers {
		readers[i] = RWSet{Reads: []string{"k"}}
	}
	var first []TxRef
	for run := 0; run < 20; run++ {
		x := NewIndex()
		addBlock(x, 0, readers)
		addBlock(x, 1, readers)
		got := addBlock(x, 2, []RWSet{{Writes: []string{"k"}}})[0]
		if len(got) != 2*len(readers) {
			t.Fatalf("run %d: %d preds, want %d", run, len(got), 2*len(readers))
		}
		if !slices.IsSortedFunc(got, compareRefs) {
			t.Fatalf("run %d: preds not sorted by (Block, Index): %v", run, got)
		}
		if run == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: preds %v differ from run 0's %v", run, got, first)
		}
	}
}

// TestStitchPropertyWindowEqualsOneBigBlock is the core correctness
// property of the one index in both of its windows. The orderer's
// per-block graphs (a one-block window, reused across blocks through
// Remove) plus the executor's cross-block predecessors (the pipeline
// window) must equal, edge for edge, the graph Build derives over the
// concatenation of the window's blocks, and have the transitive closure
// of BuildPairwise over it: the ordering the pipelined executor enforces
// is exactly the ordering a single giant block would have had. With
// slide set, the executor window drops its oldest block at random
// points, as finalization does, and each newly added block's edges must
// then match Build over the blocks still in the window.
func TestStitchPropertyWindowEqualsOneBigBlock(t *testing.T) {
	for _, slide := range []bool{false, true} {
		rng := rand.New(rand.NewSource(42))
		orderer := NewBuilder()
		for trial := 0; trial < 50; trial++ {
			numBlocks := 2 + rng.Intn(4)
			perBlock := make([][]RWSet, numBlocks)
			var all []RWSet
			offset := make([]int, numBlocks+1)
			for b := range perBlock {
				perBlock[b] = randomSets(rng, 1+rng.Intn(8), 1+rng.Intn(5))
				all = append(all, perBlock[b]...)
				offset[b+1] = len(all)
			}

			window := NewIndex()
			lo := 0 // oldest block still in the executor window
			got := &Graph{N: len(all), Succ: make([][]int32, len(all)), Pred: make([][]int32, len(all))}
			edge := func(from, to int) {
				got.Succ[from] = append(got.Succ[from], int32(to))
				got.Pred[to] = append(got.Pred[to], int32(from))
			}
			for b, sets := range perBlock {
				for slide && lo < b && rng.Intn(3) == 0 {
					window.Remove(uint64(lo))
					lo++
				}
				g := orderBlock(orderer, sets)
				if want := Build(sets); !sameEdges(g, want) {
					t.Fatalf("slide=%v trial %d block %d: orderer graph %v, Build %v", slide, trial, b, g.Succ, want.Succ)
				}
				for i, succ := range g.Succ {
					for _, j := range succ {
						edge(offset[b]+i, offset[b]+int(j))
					}
				}
				for j, preds := range addBlock(window, uint64(b), sets) {
					if !slices.IsSortedFunc(preds, compareRefs) {
						t.Fatalf("slide=%v trial %d: unsorted cross preds %v", slide, trial, preds)
					}
					for _, r := range preds {
						if int(r.Block) < lo {
							t.Fatalf("slide=%v trial %d: pred %v in removed block (window starts at %d)", slide, trial, r, lo)
						}
						edge(offset[r.Block]+int(r.Index), offset[b]+j)
					}
				}
				// The edges into block b must be Build's over the window.
				want := Build(all[offset[lo]:offset[b+1]])
				for j := offset[b]; j < offset[b+1]; j++ {
					var wantPred []int32
					for _, p := range want.Pred[j-offset[lo]] {
						wantPred = append(wantPred, p+int32(offset[lo]))
					}
					gotPred := slices.Sorted(slices.Values(got.Pred[j]))
					if !reflect.DeepEqual(nilToEmpty(gotPred), nilToEmpty(wantPred)) {
						t.Fatalf("slide=%v trial %d: preds of %d = %v, want %v", slide, trial, j, gotPred, wantPred)
					}
				}
			}
			if lo == 0 {
				for i := range got.Succ {
					slices.Sort(got.Succ[i])
				}
				if !closuresEqual(got, BuildPairwise(all)) {
					t.Fatalf("slide=%v trial %d: window closure != BuildPairwise closure", slide, trial)
				}
			}
		}
		if orderer.x.Len() != 0 {
			t.Fatalf("orderer window holds %d keys after every block was removed", orderer.x.Len())
		}
	}
}

// TestAppenderPrefixSplitEqualsBuild: adding a block's transactions to
// a Builder one at a time, as the orderer does while consensus delivers,
// yields after every Add exactly the graph Build derives over the prefix
// delivered so far, and the finished graph has the closure of the O(n^2)
// pairwise reference. One Builder is reused across blocks, so the
// free-listed slots of earlier blocks are exercised too.
func TestAppenderPrefixSplitEqualsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder()
	for trial := 0; trial < 60; trial++ {
		sets := randomSets(rng, 1+rng.Intn(24), 1+rng.Intn(5))
		for j, s := range sets {
			b.Add(s)
			if !sameEdges(b.g, Build(sets[:j+1])) {
				t.Fatalf("trial %d: graph after %d adds != Build of that prefix", trial, j+1)
			}
		}
		got := b.Cut()
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: built graph invalid: %v", trial, err)
		}
		if !closuresEqual(got, BuildPairwise(sets)) {
			t.Fatalf("trial %d: built graph's closure != pairwise closure", trial)
		}
		if b.x.Len() != 0 {
			t.Fatalf("trial %d: Cut left %d keys indexed", trial, b.x.Len())
		}
	}
}

func TestAppenderFinishResets(t *testing.T) {
	b := NewBuilder()
	first := orderBlock(b, []RWSet{{Writes: []string{"k"}}})
	if first.N != 1 || b.x.Len() != 0 {
		t.Fatalf("Cut did not reset: N=%d keys=%d", first.N, b.x.Len())
	}
	// A fresh block must not see the previous block's writers.
	second := orderBlock(b, []RWSet{{Reads: []string{"k"}}, {Writes: []string{"k"}}})
	if second.N != 2 || len(second.Pred[0]) != 0 || !second.HasEdge(0, 1) {
		t.Fatalf("second graph corrupted: %+v", second)
	}
	// The first graph must be untouched by later adds.
	if first.N != 1 || len(first.Succ) != 1 || len(first.Succ[0]) != 0 {
		t.Fatalf("finished graph mutated: %+v", first)
	}
}

// TestIndexEmptyKeyIsIndexedAndFreed: "" is a valid key. Its entry must
// be freed like any other when its block leaves the window, or a later
// block sees a stale predecessor — in the orderer's one-block window, an
// index into a graph that no longer holds it.
func TestIndexEmptyKeyIsIndexedAndFreed(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 3; i++ {
		g := orderBlock(b, []RWSet{{Writes: []string{""}}, {Reads: []string{""}}})
		if g.N != 2 || len(g.Pred[0]) != 0 || !g.HasEdge(0, 1) {
			t.Fatalf("block %d: graph %+v, want the one edge 0->1", i, g)
		}
		if b.x.Len() != 0 {
			t.Fatalf("block %d: Cut left %d keys indexed", i, b.x.Len())
		}
	}
	if g := orderBlock(b, []RWSet{{Reads: []string{""}}}); len(g.Pred[0]) != 0 {
		t.Fatalf("read of \"\" after a cut has stale preds %v", g.Pred[0])
	}

	x := NewIndex()
	addBlock(x, 0, []RWSet{{Writes: []string{""}}})
	if got := addBlock(x, 1, []RWSet{{Reads: []string{""}}}); !reflect.DeepEqual(got[0], []TxRef{ref(0, 0)}) {
		t.Fatalf("cross preds = %v, want [(0,0)]", got[0])
	}
	x.Remove(0)
	x.Remove(1)
	for num := uint64(2); num < 10; num++ {
		addBlock(x, num, []RWSet{{Reads: []string{""}}})
		x.Remove(num)
	}
	if x.Len() != 0 || len(x.state) != 1 || cap(x.state[0].readers) > 1 {
		t.Fatalf("index kept the empty key: %d keys, %d slots", x.Len(), len(x.state))
	}
	if got := addBlock(x, 10, []RWSet{{Writes: []string{""}}}); len(got[0]) != 0 {
		t.Fatalf("finalized blocks must impose no edges: %v", got[0])
	}
}

// sameEdges compares two graphs edge for edge.
func sameEdges(a, b *Graph) bool {
	if a.N != b.N {
		return false
	}
	for i := range a.Succ {
		if !reflect.DeepEqual(nilToEmpty(a.Succ[i]), nilToEmpty(b.Succ[i])) {
			return false
		}
	}
	return true
}

func nilToEmpty(s []int32) []int32 {
	if s == nil {
		return []int32{}
	}
	return s
}
