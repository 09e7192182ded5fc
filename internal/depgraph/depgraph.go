// Package depgraph implements the dependency-graph generator at the heart
// of the OXII paradigm (Section III-A of the ParBlockchain paper).
//
// Given a block of transactions in their agreed total order, each with a
// declared read set rho(T) and write set omega(T), an ordering dependency
// Ti ~> Tj exists iff Ti precedes Tj in the block and
//
//	rho(Ti)  ∩ omega(Tj) != ∅, or
//	omega(Ti) ∩ rho(Tj)  != ∅, or
//	omega(Ti) ∩ omega(Tj) != ∅.
//
// The dependency graph of the block is the DAG over the block's
// transactions whose edges are exactly the ordering dependencies. Any
// execution schedule that respects the graph's partial order is equivalent
// to the sequential execution of the block, while transactions that are
// unordered by the graph may run in parallel.
//
// One rule covers every workload benchmarked here: the paper's
// single-version one. The multi-version relaxation of Section III-A
// (order only earlier writes before later reads) removes no ordering
// constraint when, as in every transfer, a transaction reads what it
// writes.
//
// The package is pure: it depends only on the standard library and knows
// nothing about transactions beyond their read/write sets.
package depgraph

import (
	"errors"
	"fmt"
	"sort"
)

// Standard names the one conflict rule. Build and BuildPairwise accept it
// as an optional trailing argument so callers that spell the rule out
// (the benchmark harness under benchmark/ does) keep compiling; there is
// no other rule to select.
const Standard rule = 0

type rule int

// RWSet is the declared access sets of one transaction. Both slices must
// be sorted and duplicate-free for the indexed builder; Normalize puts an
// arbitrary slice in that form.
type RWSet struct {
	// Reads is the set of keys the transaction reads.
	Reads []string
	// Writes is the set of keys the transaction writes.
	Writes []string
}

// Normalize sorts and deduplicates both access sets in place.
func (s *RWSet) Normalize() {
	s.Reads = normalize(s.Reads)
	s.Writes = normalize(s.Writes)
}

func normalize(keys []string) []string {
	if len(keys) < 2 {
		return keys
	}
	sort.Strings(keys)
	out := keys[:1]
	for _, k := range keys[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// Graph is a dependency graph over the n transactions of one block,
// indexed 0..n-1 in block order. All edges point from lower to higher
// index, so the natural order is a topological order by construction.
//
// Graph values are safe for concurrent readers once built.
type Graph struct {
	// N is the number of transactions (nodes).
	N int
	// Succ[i] lists the successors Suc(i) in increasing order.
	Succ [][]int32
	// Pred[i] lists the predecessors Pre(i) in increasing order.
	Pred [][]int32
}

// ErrInvalid reports a malformed graph (edge direction or range
// violations).
var ErrInvalid = errors.New("depgraph: invalid graph")

// Build constructs the dependency graph for the given access sets, which
// must be normalized. It is the batch form of what the orderer does as
// consensus delivers: Add each transaction to a Builder.
func Build(sets []RWSet, _ ...rule) *Graph {
	b := NewBuilder()
	for _, s := range sets {
		b.Add(s)
	}
	return b.g // the index is discarded, so Cut's Remove is not needed
}

// Builder derives one block's Graph at a time from the block's
// transactions in block order: the conflict Index (index.go) run over a
// one-block window. It is not safe for concurrent use.
type Builder struct {
	x   *Index
	num uint64 // the current block's number within the window
	g   *Graph
}

// NewBuilder returns a Builder with an empty first block.
func NewBuilder() *Builder {
	return &Builder{x: NewIndex(), g: &Graph{Succ: [][]int32{}, Pred: [][]int32{}}}
}

// Add appends the block's next transaction to its graph, ordered after
// every earlier transaction of the block it conflicts with.
func (b *Builder) Add(set RWSet) {
	g := b.g
	j := int32(g.N)
	var pred []int32
	if preds := b.x.Add(TxRef{Block: b.num, Index: j}, set); len(preds) > 0 {
		pred = make([]int32, len(preds))
		for k, p := range preds {
			pred[k] = p.Index
			g.Succ[p.Index] = append(g.Succ[p.Index], j)
		}
	}
	g.Pred = append(g.Pred, pred)
	g.Succ = append(g.Succ, nil)
	g.N++
}

// Cut returns the block's finished graph and starts the next block over
// an empty window. Later Adds never touch the returned graph.
func (b *Builder) Cut() *Graph {
	g := b.g
	b.x.Remove(b.num)
	b.num++
	b.g = &Graph{Succ: [][]int32{}, Pred: [][]int32{}}
	return g
}

// BuildPairwise constructs the dependency graph by comparing every pair of
// transactions, emitting an edge for each conflicting pair exactly as the
// paper's definition enumerates them. It is O(n^2) in the block size and
// exists both as the reference implementation the indexed Build is tested
// against and as the paper-faithful cost model for the block-size
// experiments (Figure 5 attributes the throughput turnover to dependency
// graph generation cost).
func BuildPairwise(sets []RWSet, _ ...rule) *Graph {
	n := len(sets)
	g := &Graph{
		N:    n,
		Succ: make([][]int32, n),
		Pred: make([][]int32, n),
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if conflicts(&sets[i], &sets[j]) {
				g.Succ[i] = append(g.Succ[i], int32(j))
				g.Pred[j] = append(g.Pred[j], int32(i))
			}
		}
	}
	return g
}

// conflicts reports whether an ordering dependency i ~> j exists, for i
// preceding j in the block.
func conflicts(a, b *RWSet) bool {
	return intersectsSorted(a.Writes, b.Writes) ||
		intersectsSorted(a.Reads, b.Writes) ||
		intersectsSorted(a.Writes, b.Reads)
}

// intersectsSorted reports whether two sorted string slices share an
// element, via a linear merge scan.
func intersectsSorted(a, b []string) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// EdgeCount returns the number of edges in the graph.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, s := range g.Succ {
		total += len(s)
	}
	return total
}

// HasEdge reports whether the edge i->j is present.
func (g *Graph) HasEdge(i, j int) bool {
	succ := g.Succ[i]
	k := sort.Search(len(succ), func(k int) bool { return succ[k] >= int32(j) })
	return k < len(succ) && succ[k] == int32(j)
}

// Validate checks structural invariants: every edge points forward in
// block order (hence the graph is acyclic), adjacency lists are sorted and
// in range, and Succ/Pred mirror each other.
func (g *Graph) Validate() error {
	if len(g.Succ) != g.N || len(g.Pred) != g.N {
		return fmt.Errorf("%w: adjacency size mismatch", ErrInvalid)
	}
	for i, succ := range g.Succ {
		prev := int32(i)
		for _, j := range succ {
			if j <= int32(i) {
				return fmt.Errorf("%w: backward or self edge %d->%d", ErrInvalid, i, j)
			}
			if int(j) >= g.N {
				return fmt.Errorf("%w: edge target %d out of range", ErrInvalid, j)
			}
			if j <= prev && prev != int32(i) {
				return fmt.Errorf("%w: unsorted successors at node %d", ErrInvalid, i)
			}
			prev = j
			if !containsInt32(g.Pred[j], int32(i)) {
				return fmt.Errorf("%w: edge %d->%d missing from Pred", ErrInvalid, i, j)
			}
		}
	}
	for j, pred := range g.Pred {
		for _, i := range pred {
			if i >= int32(j) {
				return fmt.Errorf("%w: backward or self pred edge %d->%d", ErrInvalid, i, j)
			}
			if !containsInt32(g.Succ[i], int32(j)) {
				return fmt.Errorf("%w: edge %d->%d missing from Succ", ErrInvalid, i, j)
			}
		}
	}
	return nil
}

func containsInt32(s []int32, v int32) bool {
	k := sort.Search(len(s), func(k int) bool { return s[k] >= v })
	return k < len(s) && s[k] == v
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{N: g.N, Succ: make([][]int32, g.N), Pred: make([][]int32, g.N)}
	for i := range g.Succ {
		if len(g.Succ[i]) > 0 {
			c.Succ[i] = append([]int32(nil), g.Succ[i]...)
		}
		if len(g.Pred[i]) > 0 {
			c.Pred[i] = append([]int32(nil), g.Pred[i]...)
		}
	}
	return c
}
