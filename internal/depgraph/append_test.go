package depgraph

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestAppenderPrefixSplitEqualsBuild is the incremental counterpart of
// the Stitcher window property: feeding a block's access sets to an
// Appender across arbitrary prefix splits (the orderer appends as
// consensus delivers, in bursts of any size) must produce exactly
// the graph Build derives over the whole block, and the per-append
// predecessor lists must equal the finished graph's Pred rows. Both are
// cross-checked against the independent O(n^2) pairwise reference so the
// Build-on-Appender refactor cannot hide a shared bug.
func TestAppenderPrefixSplitEqualsBuild(t *testing.T) {
	for _, mode := range []Mode{Standard, MultiVersion} {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 60; trial++ {
			sets := randomSets(rng, 1+rng.Intn(24), 1+rng.Intn(5))
			want := Build(sets, mode)
			reference := BuildPairwise(sets, mode)

			a := NewAppender(mode)
			perTx := make([][]int32, 0, len(sets))
			for i := 0; i < len(sets); {
				// Random chunk size models arbitrary delivery bursts.
				end := i + 1 + rng.Intn(len(sets)-i)
				for _, s := range sets[i:end] {
					perTx = append(perTx, a.Append(s))
				}
				i = end
			}
			got := a.Finish()

			if err := got.Validate(); err != nil {
				t.Fatalf("mode %v trial %d: appended graph invalid: %v", mode, trial, err)
			}
			if !sameEdges(got, want) {
				t.Fatalf("mode %v trial %d: appended graph != Build", mode, trial)
			}
			for j := range perTx {
				if !reflect.DeepEqual(nilToEmpty(perTx[j]), nilToEmpty(got.Pred[j])) {
					t.Fatalf("mode %v trial %d: Append preds for %d = %v, finished Pred = %v",
						mode, trial, j, perTx[j], got.Pred[j])
				}
			}
			// Transitive-closure equivalence against the pairwise reference:
			// every pairwise edge must be implied by the reduced graph.
			reach := reachability(got)
			for i, succ := range reference.Succ {
				for _, j := range succ {
					if !reach[i][j] {
						t.Fatalf("mode %v trial %d: pairwise edge %d->%d unreachable in appended graph",
							mode, trial, i, j)
					}
				}
			}
			// And no reduced edge may exist without a pairwise conflict path.
			refReach := reachability(reference)
			for i, succ := range got.Succ {
				for _, j := range succ {
					if !refReach[i][j] {
						t.Fatalf("mode %v trial %d: appended edge %d->%d not in pairwise closure",
							mode, trial, i, j)
					}
				}
			}
		}
	}
}

func TestAppenderFinishResets(t *testing.T) {
	a := NewAppender(Standard)
	a.Append(RWSet{Writes: []string{"k"}})
	first := a.Finish()
	if first.N != 1 || a.Len() != 0 {
		t.Fatalf("Finish did not reset: N=%d len=%d", first.N, a.Len())
	}
	// A fresh block must not see the previous block's writers.
	preds := a.Append(RWSet{Reads: []string{"k"}})
	if len(preds) != 0 {
		t.Fatalf("state leaked across Finish: preds=%v", preds)
	}
	second := a.Finish()
	if second.N != 1 || len(second.Pred[0]) != 0 {
		t.Fatalf("second graph corrupted: %+v", second)
	}
	// The first graph must be untouched by later appends.
	if first.N != 1 || len(first.Succ) != 1 {
		t.Fatalf("finished graph mutated: %+v", first)
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

// reachability computes the transitive closure via DFS per node (test
// sizes are tiny).
func reachability(g *Graph) []map[int32]bool {
	reach := make([]map[int32]bool, g.N)
	var visit func(from int, j int32, seen map[int32]bool)
	visit = func(from int, j int32, seen map[int32]bool) {
		if seen[j] {
			return
		}
		seen[j] = true
		for _, k := range g.Succ[j] {
			visit(from, k, seen)
		}
	}
	for i := 0; i < g.N; i++ {
		seen := make(map[int32]bool)
		for _, j := range g.Succ[i] {
			visit(i, j, seen)
		}
		reach[i] = seen
	}
	return reach
}
