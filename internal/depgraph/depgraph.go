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
// The package is pure: it depends only on the standard library and knows
// nothing about transactions beyond their read/write sets, so it can be
// reused for multi-version variants.
package depgraph

import (
	"errors"
	"fmt"
	"sort"
)

// Mode selects the conflict rule used to derive edges.
type Mode int

const (
	// Standard is the single-version rule from the paper's main
	// definition: read-write, write-read, and write-write intersections
	// all create ordering dependencies.
	Standard Mode = iota + 1
	// MultiVersion is the rule for multi-version datastores discussed in
	// Section III-A: writes create new versions, so concurrent
	// write-write and read-before-write pairs are permitted; only
	// "earlier writes, later reads" pairs (omega(Ti) ∩ rho(Tj)) are
	// ordered.
	MultiVersion
)

// String returns the mode's name.
func (m Mode) String() string {
	switch m {
	case Standard:
		return "standard"
	case MultiVersion:
		return "multiversion"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// MarshalText and UnmarshalText spell the mode by name ("standard",
// "multiversion") in cluster JSON; the empty string is the zero Mode,
// which every consumer defaults to Standard.
func (m Mode) MarshalText() ([]byte, error) {
	if m == 0 {
		return nil, nil
	}
	return []byte(m.String()), nil
}

// UnmarshalText parses a mode name.
func (m *Mode) UnmarshalText(text []byte) error {
	switch string(text) {
	case "":
		*m = 0
	case "standard":
		*m = Standard
	case "multiversion":
		*m = MultiVersion
	default:
		return fmt.Errorf("depgraph: unknown mode %q (want standard or multiversion)", text)
	}
	return nil
}

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

// Build constructs the dependency graph for the given access sets using
// the indexed builder: for every key it tracks the last writer and the
// readers since that write, emitting only edges whose transitive closure
// equals the full pairwise conflict relation. This is O(sum of access-set
// sizes) per block rather than O(n^2) pairwise scans.
//
// Build is the batch form of the incremental Appender (append.go) and is
// implemented on top of it, so a graph streamed out one transaction at a
// time is identical, edge for edge, to the graph built at the block cut.
func Build(sets []RWSet, mode Mode) *Graph {
	a := NewAppender(mode)
	for _, s := range sets {
		a.Append(s)
	}
	return a.Finish()
}

// BuildPairwise constructs the dependency graph by comparing every pair of
// transactions, emitting an edge for each conflicting pair exactly as the
// paper's definition enumerates them. It is O(n^2) in the block size and
// exists both as the reference implementation the indexed Build is tested
// against and as the paper-faithful cost model for the block-size
// experiments (Figure 5 attributes the throughput turnover to dependency
// graph generation cost).
func BuildPairwise(sets []RWSet, mode Mode) *Graph {
	n := len(sets)
	g := &Graph{
		N:    n,
		Succ: make([][]int32, n),
		Pred: make([][]int32, n),
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if conflicts(&sets[i], &sets[j], mode) {
				g.Succ[i] = append(g.Succ[i], int32(j))
				g.Pred[j] = append(g.Pred[j], int32(i))
			}
		}
	}
	return g
}

// conflicts reports whether an ordering dependency i ~> j exists under the
// given mode, for i preceding j in the block.
func conflicts(a, b *RWSet, mode Mode) bool {
	if mode == MultiVersion {
		return intersectsSorted(a.Writes, b.Reads)
	}
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
