package depgraph

// This file provides structural analyses over dependency graphs: level
// decomposition (the schedule depth a perfect executor could achieve),
// weakly connected components (the paper's observation that a
// disconnected graph decomposes execution across applications), and
// transitive closure (used to prove builder equivalence in tests).

// Levels assigns each node its longest-path depth: nodes with no
// predecessors are level 0, and every other node is one more than the
// maximum level among its predecessors. Transactions on the same level
// never conflict and can execute fully in parallel.
func (g *Graph) Levels() []int {
	levels := make([]int, g.N)
	for j := 0; j < g.N; j++ {
		max := -1
		for _, p := range g.Pred[j] {
			if levels[p] > max {
				max = levels[p]
			}
		}
		levels[j] = max + 1
	}
	return levels
}

// Heights assigns each node the length in edges of the longest directed
// path starting at it: nodes with no successors are height 0, and every
// other node is one more than the maximum height among its successors.
// It is the downstream dual of Levels: the tallest ready transaction
// heads the longest remaining chain.
func (g *Graph) Heights() []int {
	heights := make([]int, g.N)
	// Edges always point from a lower to a higher index (both builders
	// guarantee pred < self), so reverse index order is reverse
	// topological order.
	for j := g.N - 1; j >= 0; j-- {
		max := -1
		for _, s := range g.Succ[j] {
			if heights[s] > max {
				max = heights[s]
			}
		}
		heights[j] = max + 1
	}
	return heights
}

// CriticalPathLen returns the number of levels in the graph: the length of
// the longest dependency chain, which lower-bounds the sequential rounds
// any schedule must take. An empty graph has length 0; a block with no
// conflicts has length 1; a full-contention block (chain) has length N.
func (g *Graph) CriticalPathLen() int {
	if g.N == 0 {
		return 0
	}
	depth := 0
	for _, l := range g.Levels() {
		if l+1 > depth {
			depth = l + 1
		}
	}
	return depth
}

// MaxWidth returns the size of the largest level: the peak number of
// transactions that may execute concurrently under level-by-level
// scheduling.
func (g *Graph) MaxWidth() int {
	if g.N == 0 {
		return 0
	}
	counts := make(map[int]int, 8)
	best := 0
	for _, l := range g.Levels() {
		counts[l]++
		if counts[l] > best {
			best = counts[l]
		}
	}
	return best
}

// Components returns the weakly connected components of the graph, each a
// sorted list of node indices, ordered by their smallest member. If the
// transactions of each application access disjoint records, every
// component is single-application and agents can execute and multicast
// independently (Figure 4(b) in the paper).
func (g *Graph) Components() [][]int32 {
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for i, succ := range g.Succ {
		for _, j := range succ {
			union(int32(i), j)
		}
	}
	groups := make(map[int32][]int32, g.N)
	order := make([]int32, 0, g.N)
	for i := 0; i < g.N; i++ {
		r := find(int32(i))
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], int32(i))
	}
	out := make([][]int32, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// IsChain reports whether the graph's transitive reduction is a single
// chain covering all nodes — the shape of a full-contention block
// (Figure 6(d): "the dependency graph of each block in the last workload
// is a chain").
func (g *Graph) IsChain() bool {
	if g.N <= 1 {
		return true
	}
	levels := g.Levels()
	seen := make([]bool, g.N)
	for _, l := range levels {
		if l >= g.N || seen[l] {
			return false
		}
		seen[l] = true
	}
	return true
}

// TransitiveClosure returns the reachability relation as a slice of
// bitsets: closure[i] has bit j set iff j is reachable from i. Intended
// for tests and small graphs; memory is O(N^2/64).
func (g *Graph) TransitiveClosure() []Bitset {
	closure := make([]Bitset, g.N)
	for i := range closure {
		closure[i] = NewBitset(g.N)
	}
	// Process nodes in reverse topological (= reverse index) order so
	// that each successor's closure is complete before it is merged.
	for i := g.N - 1; i >= 0; i-- {
		for _, j := range g.Succ[i] {
			closure[i].Set(int(j))
			closure[i].Or(closure[j])
		}
	}
	return closure
}

// Roots returns the nodes with no predecessors, i.e. the transactions that
// are immediately executable when a block arrives.
func (g *Graph) Roots() []int32 {
	roots := make([]int32, 0, g.N)
	for j := 0; j < g.N; j++ {
		if len(g.Pred[j]) == 0 {
			roots = append(roots, int32(j))
		}
	}
	return roots
}

// Bitset is a fixed-size bit vector used by TransitiveClosure.
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Get reports whether bit i is set.
func (b Bitset) Get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Or merges other into b (b |= other). The bitsets must be the same size.
func (b Bitset) Or(other Bitset) {
	for w := range b {
		b[w] |= other[w]
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	total := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			total++
		}
	}
	return total
}
