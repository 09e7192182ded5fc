package depgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// paperExample is the block of Figure 2: [T1, T5, T4, T3, T2] with
// dependencies T1~>T4 (T4 reads b written by T1), T5~>T2 (both write d),
// T5~>T3 (T3 writes e read by T5).
func paperExample() []RWSet {
	return []RWSet{
		{Reads: []string{"a"}, Writes: []string{"b"}},      // T1
		{Reads: []string{"e"}, Writes: []string{"d"}},      // T5
		{Reads: []string{"b"}, Writes: []string{"c"}},      // T4
		{Reads: []string{"f"}, Writes: []string{"e"}},      // T3
		{Reads: []string{"g"}, Writes: []string{"d", "h"}}, // T2
	}
}

func TestPaperFigure2Example(t *testing.T) {
	g := BuildPairwise(paperExample())
	wantEdges := [][2]int{{0, 2}, {1, 3}, {1, 4}}
	if got := g.EdgeCount(); got != len(wantEdges) {
		t.Fatalf("edge count = %d, want %d (graph %v)", got, len(wantEdges), g.Succ)
	}
	for _, e := range wantEdges {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %d->%d", e[0], e[1])
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuildMatchesPairwiseOnPaperExample(t *testing.T) {
	indexed := Build(paperExample())
	pairwise := BuildPairwise(paperExample())
	if !closuresEqual(indexed, pairwise) {
		t.Fatalf("closures differ: indexed %v pairwise %v", indexed.Succ, pairwise.Succ)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	g := Build(nil)
	if g.N != 0 || g.EdgeCount() != 0 {
		t.Fatalf("empty graph wrong: %+v", g)
	}
	if g.CriticalPathLen() != 0 || g.MaxWidth() != 0 {
		t.Fatal("empty graph analyses should be zero")
	}
	g = Build([]RWSet{{}})
	if g.N != 1 || g.EdgeCount() != 0 {
		t.Fatalf("singleton graph wrong: %+v", g)
	}
	if !g.IsChain() {
		t.Fatal("singleton should count as a chain")
	}
}

func TestWriteWriteConflict(t *testing.T) {
	sets := []RWSet{
		{Writes: []string{"x"}},
		{Writes: []string{"x"}},
	}
	g := Build(sets)
	if !g.HasEdge(0, 1) {
		t.Fatal("write-write conflict must create an edge")
	}
}

func TestReadThenWriteConflict(t *testing.T) {
	sets := []RWSet{
		{Reads: []string{"x"}},
		{Writes: []string{"x"}},
	}
	if g := Build(sets); !g.HasEdge(0, 1) {
		t.Fatal("read-then-write must create an edge")
	}
}

func TestWriteThenReadConflictInBothModes(t *testing.T) {
	sets := []RWSet{
		{Writes: []string{"x"}},
		{Reads: []string{"x"}},
	}
	if g := Build(sets); !g.HasEdge(0, 1) {
		t.Fatal("write-then-read must create an edge")
	}
}

func TestReadReadNoConflict(t *testing.T) {
	sets := []RWSet{
		{Reads: []string{"x"}},
		{Reads: []string{"x"}},
	}
	if g := Build(sets); g.EdgeCount() != 0 {
		t.Fatal("read-read must not conflict")
	}
}

func TestChainShape(t *testing.T) {
	// Every transaction writes the same key: a full-contention block.
	n := 40
	sets := make([]RWSet, n)
	for i := range sets {
		sets[i] = RWSet{Reads: []string{"hot"}, Writes: []string{"hot"}}
	}
	indexed := Build(sets)
	if !indexed.IsChain() {
		t.Fatal("full contention block must be a chain")
	}
	if got := indexed.CriticalPathLen(); got != n {
		t.Fatalf("chain critical path = %d, want %d", got, n)
	}
	if got := indexed.MaxWidth(); got != 1 {
		t.Fatalf("chain max width = %d, want 1", got)
	}
	// The pairwise builder produces all n(n-1)/2 edges; its transitive
	// reduction is the same chain.
	pairwise := BuildPairwise(sets)
	if got, want := pairwise.EdgeCount(), n*(n-1)/2; got != want {
		t.Fatalf("pairwise edges = %d, want %d", got, want)
	}
	if !pairwise.IsChain() {
		t.Fatal("pairwise full-contention graph must still be a chain")
	}
	if !closuresEqual(indexed, pairwise) {
		t.Fatal("chain closures differ between builders")
	}
}

func TestNoContentionShape(t *testing.T) {
	n := 50
	sets := make([]RWSet, n)
	for i := range sets {
		sets[i] = RWSet{
			Reads:  []string{fmt.Sprintf("a%d", i)},
			Writes: []string{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)},
		}
	}
	g := Build(sets)
	if g.EdgeCount() != 0 {
		t.Fatalf("disjoint access sets must give an empty graph, got %d edges", g.EdgeCount())
	}
	if got := g.CriticalPathLen(); got != 1 {
		t.Fatalf("critical path = %d, want 1", got)
	}
	if got := g.MaxWidth(); got != n {
		t.Fatalf("max width = %d, want %d", got, n)
	}
	if got := len(g.Components()); got != n {
		t.Fatalf("components = %d, want %d", got, n)
	}
	if got := len(g.Roots()); got != n {
		t.Fatalf("roots = %d, want %d", got, n)
	}
}

func TestComponentsSeparateApplications(t *testing.T) {
	// Two independent clusters, as in Figure 4(b).
	sets := []RWSet{
		{Writes: []string{"x"}},                  // 0 (cluster A)
		{Writes: []string{"y"}},                  // 1 (cluster B)
		{Reads: []string{"x"}},                   // 2 (cluster A)
		{Reads: []string{"y"}},                   // 3 (cluster B)
		{Reads: []string{"x", "y"}, Writes: nil}, // 4 joins nothing new? reads both -> joins A and B
	}
	g := Build(sets[:4])
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2 (%v)", len(comps), comps)
	}
	// Adding a reader of both keys merges the components.
	g = Build(sets)
	if got := len(g.Components()); got != 1 {
		t.Fatalf("merged components = %d, want 1", got)
	}
}

func TestLevelsRespectEdges(t *testing.T) {
	g := BuildPairwise(paperExample())
	levels := g.Levels()
	for i, succ := range g.Succ {
		for _, j := range succ {
			if levels[j] <= levels[i] {
				t.Fatalf("edge %d->%d but level %d <= %d", i, j, levels[j], levels[i])
			}
		}
	}
}

func TestValidateRejectsCorruptGraphs(t *testing.T) {
	g := Build(paperExample())
	cases := map[string]func(*Graph){
		"backward edge": func(g *Graph) { g.Succ[3] = append(g.Succ[3], 1) },
		"self edge":     func(g *Graph) { g.Succ[2] = append(g.Succ[2], 2) },
		"missing pred":  func(g *Graph) { g.Pred[2] = nil },
		"out of range":  func(g *Graph) { g.Succ[0] = append(g.Succ[0], 99) },
		"size mismatch": func(g *Graph) { g.Succ = g.Succ[:len(g.Succ)-1] },
		"dangling pred": func(g *Graph) { g.Pred[4] = append(g.Pred[4], 0) },
	}
	for name, corrupt := range cases {
		c := g.Clone()
		corrupt(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt graph", name)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("clone source should validate: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Build(paperExample())
	c := g.Clone()
	if len(c.Succ[0]) > 0 {
		c.Succ[0][0] = 99
		if g.Succ[0][0] == 99 {
			t.Fatal("Clone shares successor slices")
		}
	}
}

// randomSets generates a random block of access sets over a small key
// universe so conflicts are common.
func randomSets(rng *rand.Rand, n, universe int) []RWSet {
	sets := make([]RWSet, n)
	for i := range sets {
		var s RWSet
		for r := rng.Intn(3); r > 0; r-- {
			s.Reads = append(s.Reads, fmt.Sprintf("k%d", rng.Intn(universe)))
		}
		for w := rng.Intn(3); w > 0; w-- {
			s.Writes = append(s.Writes, fmt.Sprintf("k%d", rng.Intn(universe)))
		}
		s.Normalize()
		sets[i] = s
	}
	return sets
}

// closuresEqual compares the reachability relations of two graphs.
func closuresEqual(a, b *Graph) bool {
	ca, cb := a.TransitiveClosure(), b.TransitiveClosure()
	return reflect.DeepEqual(ca, cb)
}

// TestPropertyBuildersEquivalent checks, over random blocks, that the
// indexed builder and the paper-faithful pairwise builder produce graphs
// with the same transitive closure — i.e. the same partial order.
func TestPropertyBuildersEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(30)
		sets := randomSets(rng, n, 1+rng.Intn(10))
		indexed := Build(sets)
		pairwise := BuildPairwise(sets)
		if err := indexed.Validate(); err != nil {
			t.Fatalf("trial %d: indexed invalid: %v", trial, err)
		}
		if err := pairwise.Validate(); err != nil {
			t.Fatalf("trial %d: pairwise invalid: %v", trial, err)
		}
		if !closuresEqual(indexed, pairwise) {
			t.Fatalf("trial %d: closures differ\nsets: %+v\nindexed: %v\npairwise: %v",
				trial, sets, indexed.Succ, pairwise.Succ)
		}
	}
}

// TestPropertyConflictSoundness checks that the pairwise graph has an
// edge i->j exactly when the conflict predicate holds, and that the
// indexed graph's closure covers every conflicting pair (completeness)
// and orders only genuinely dependent pairs (soundness via pairwise
// closure).
func TestPropertyConflictSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(25)
		sets := randomSets(rng, n, 1+rng.Intn(8))
		pairwise := BuildPairwise(sets)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := conflicts(&sets[i], &sets[j])
				if got := pairwise.HasEdge(i, j); got != want {
					t.Fatalf("trial %d: edge(%d,%d) = %v, conflict = %v", trial, i, j, got, want)
				}
			}
		}
		indexed := Build(sets)
		closure := indexed.TransitiveClosure()
		pairClosure := pairwise.TransitiveClosure()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if conflicts(&sets[i], &sets[j]) && !closure[i].Get(j) {
					t.Fatalf("trial %d: conflicting pair (%d,%d) unordered by indexed graph", trial, i, j)
				}
				if closure[i].Get(j) && !pairClosure[i].Get(j) {
					t.Fatalf("trial %d: indexed orders non-dependent pair (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

// TestQuickNormalizeIdempotent uses testing/quick: normalization is
// idempotent and produces sorted unique keys.
func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(keys []string) bool {
		s := RWSet{Reads: append([]string(nil), keys...)}
		s.Normalize()
		once := append([]string(nil), s.Reads...)
		s.Normalize()
		if !reflect.DeepEqual(once, s.Reads) {
			return false
		}
		for i := 1; i < len(once); i++ {
			if once[i-1] >= once[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBitset exercises the bitset used by closures.
func TestQuickBitset(t *testing.T) {
	f := func(raw []uint16) bool {
		b := NewBitset(1 << 16)
		seen := make(map[int]bool)
		for _, v := range raw {
			b.Set(int(v))
			seen[int(v)] = true
		}
		if b.Count() != len(seen) {
			return false
		}
		for v := range seen {
			if !b.Get(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildIndexed200(b *testing.B)  { benchBuild(b, Build, 200) }
func BenchmarkBuildPairwise200(b *testing.B) { benchBuild(b, BuildPairwise, 200) }
func BenchmarkBuildIndexed1000(b *testing.B) { benchBuild(b, Build, 1000) }
func BenchmarkBuildPairwise1000(b *testing.B) {
	benchBuild(b, BuildPairwise, 1000)
}

func benchBuild(b *testing.B, build func([]RWSet, ...rule) *Graph, n int) {
	rng := rand.New(rand.NewSource(1))
	sets := randomSets(rng, n, n/2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(sets)
	}
}
