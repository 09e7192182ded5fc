package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"parblockchain/internal/types"
)

// TestOverlayChainReadsNewestPredecessorWrite covers the pipelined
// chaining contract: an overlay stacked on another overlay sees the
// predecessor's uncommitted writes, its own writes win, and deletions
// shadow through the chain.
func TestOverlayChainReadsNewestPredecessorWrite(t *testing.T) {
	store := NewKVStore()
	store.Apply([]types.KV{{Key: "a", Val: []byte("base")}, {Key: "d", Val: []byte("x")}})
	prev := NewBlockOverlay(store)
	prev.Record(0, []types.KV{{Key: "a", Val: []byte("prev")}, {Key: "d", Val: nil}})
	next := NewBlockOverlay(prev)
	if v, ok := next.Get("a"); !ok || string(v) != "prev" {
		t.Fatalf("chained read = %q,%v, want predecessor's uncommitted write", v, ok)
	}
	if _, ok := next.Get("d"); ok {
		t.Fatal("predecessor's deletion must shadow the store through the chain")
	}
	next.Record(0, []types.KV{{Key: "a", Val: []byte("next")}})
	if v, _ := next.Get("a"); string(v) != "next" {
		t.Fatalf("own write must win, got %q", v)
	}
}

// TestOverlayRebase covers the finalize handoff: once a predecessor's
// writes are applied to the store, rebasing its successor onto the store
// must not change what the successor reads — and must release the
// predecessor overlay from the read chain.
func TestOverlayRebase(t *testing.T) {
	store := NewKVStore()
	store.Apply([]types.KV{{Key: "a", Val: []byte("base")}})
	prev := NewBlockOverlay(store)
	prev.Record(0, []types.KV{{Key: "a", Val: []byte("v1")}, {Key: "gone", Val: nil}, {Key: "b", Val: []byte("w")}})
	next := NewBlockOverlay(prev)

	// Finalize prev exactly as the executor does, then rebase.
	store.Apply(prev.Final())
	next.Rebase(store)

	if v, ok := next.Get("a"); !ok || string(v) != "v1" {
		t.Fatalf("post-rebase read = %q,%v, want finalized value v1", v, ok)
	}
	if v, ok := next.Get("b"); !ok || string(v) != "w" {
		t.Fatalf("post-rebase read = %q,%v, want finalized value w", v, ok)
	}
	if _, ok := next.Get("gone"); ok {
		t.Fatal("finalized deletion resurfaced after rebase")
	}
	// New store writes are now visible directly (prev is out of the chain).
	store.Put("fresh", []byte("f"))
	if v, ok := next.Get("fresh"); !ok || string(v) != "f" {
		t.Fatalf("rebase did not swing reads to the store: %q,%v", v, ok)
	}
}

// TestOverlayRerecordLastCallWins pins the one rule for recording an
// index twice: a byte-equal value changes (and allocates) nothing, a
// different value replaces the earlier one — whether or not the call's
// other keys already had an entry at that index — and the index still
// revokes as a whole.
func TestOverlayRerecordLastCallWins(t *testing.T) {
	o := NewBlockOverlay(NewKVStore())
	o.Record(1, []types.KV{{Key: "k", Val: []byte("old")}})
	o.Record(3, []types.KV{{Key: "k", Val: []byte("a")}})
	o.Record(3, []types.KV{{Key: "k", Val: []byte("b")}})
	if v, _ := o.Get("k"); string(v) != "b" {
		t.Fatalf("Get(k) = %q after a different re-record at the same index, want the last call's b", v)
	}
	o.Record(3, []types.KV{{Key: "k", Val: []byte("c")}, {Key: "j", Val: []byte("x")}})
	if v, _ := o.Get("k"); string(v) != "c" {
		t.Fatalf("Get(k) = %q after a re-record that also adds a key, want c", v)
	}
	// A deletion and an empty value are different values.
	o.Record(3, []types.KV{{Key: "j", Val: []byte{}}})
	o.Record(3, []types.KV{{Key: "j", Val: nil}})
	if _, ok := o.Get("j"); ok {
		t.Fatal("re-recording a deletion over an empty value must delete")
	}
	same := []types.KV{{Key: "k", Val: []byte("c")}, {Key: "j", Val: nil}}
	if n := testing.AllocsPerRun(10, func() { o.Record(3, same) }); n != 0 {
		t.Fatalf("byte-equal re-record allocates %v times, want a no-op", n)
	}
	o.PurgeIdx(3)
	if v, _ := o.Get("k"); string(v) != "old" || o.Len() != 1 {
		t.Fatalf("after PurgeIdx(3): Get(k) = %q, Len = %d; want index 1's value alone, no stale copy of index 3", v, o.Len())
	}
}

// overlayModel is the naive reference TestOverlayModel checks against:
// every write kept as written, nothing shared, nothing clever.
type overlayModel map[types.Key]map[int][]byte

// at returns the newest value written below bound and whether any write
// sits below it (a nil value with found=true is a deletion).
func (m overlayModel) at(key types.Key, bound int) (val []byte, found bool) {
	top := -1
	for idx, v := range m[key] {
		if idx < bound && idx > top {
			top, val, found = idx, v, true
		}
	}
	return val, found
}

// TestOverlayModel drives two chained overlays through seeded random
// interleavings of Record (fresh, same-index re-record, deletions, empty
// values), PurgeIdx and the finalize-and-Rebase slide, and after every
// step compares Get, At(b).Get at every bound, Warm, Len and Final with
// the reference model.
func TestOverlayModel(t *testing.T) {
	const (
		nKeys  = 5
		nIdx   = 7
		steps  = 250
		noIdx  = 1 << 30 // a bound above every index: the unbounded view
		nSeeds = 12
	)
	key := func(i int) types.Key { return types.Key(fmt.Sprintf("k%d", i)) }
	for seed := int64(1); seed <= nSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := NewKVStore()
		base := map[types.Key][]byte{}
		for i := 0; i < nKeys; i += 2 {
			base[key(i)] = []byte{byte(i)}
			store.Put(key(i), base[key(i)])
		}
		// lays[0] sits on the store, lays[1] on lays[0].
		lays := [2]*BlockOverlay{}
		lays[0] = NewBlockOverlay(store)
		lays[1] = NewBlockOverlay(lays[0])
		models := [2]overlayModel{{}, {}}

		// want resolves a read of layer l bounded by b: that layer below
		// b, then every lower layer unbounded, then the store.
		want := func(l int, k types.Key, b int) ([]byte, bool) {
			for ; l >= 0; l, b = l-1, noIdx {
				if v, found := models[l].at(k, b); found {
					return v, v != nil
				}
			}
			v, ok := base[k]
			return v, ok
		}
		check := func(step int, what string) {
			t.Helper()
			for l, o := range lays {
				var final []types.KV
				for i := 0; i < nKeys; i++ {
					k := key(i)
					for b := 0; b <= nIdx+1; b++ {
						r, bound := o.At(b), b
						if b == nIdx+1 {
							r, bound = o, noIdx
						}
						got, ok := r.Get(k)
						wv, wok := want(l, k, bound)
						if ok != wok || !bytes.Equal(got, wv) {
							t.Fatalf("seed %d step %d (%s): layer %d key %s bound %d = %q,%v, want %q,%v",
								seed, step, what, l, k, b, got, ok, wv, wok)
						}
					}
					if v, found := models[l].at(k, noIdx); found {
						final = append(final, types.KV{Key: k, Val: v})
					}
				}
				if o.Len() != len(final) {
					t.Fatalf("seed %d step %d (%s): layer %d Len = %d, want %d", seed, step, what, l, o.Len(), len(final))
				}
				got := o.Final()
				if len(got) != len(final) {
					t.Fatalf("seed %d step %d (%s): layer %d Final = %v, want %v", seed, step, what, l, got, final)
				}
				for i := range got {
					if got[i].Key != final[i].Key || !sameValue(got[i].Val, final[i].Val) {
						t.Fatalf("seed %d step %d (%s): layer %d Final = %v, want %v", seed, step, what, l, got, final)
					}
				}
			}
		}

		for step := 0; step < steps; step++ {
			l, idx := rng.Intn(2), rng.Intn(nIdx)
			var what string
			switch p := rng.Intn(100); {
			case p < 70:
				what = fmt.Sprintf("Record(%d) on layer %d", idx, l)
				var writes []types.KV
				for _, i := range rng.Perm(nKeys)[:1+rng.Intn(3)] {
					var val []byte // a deletion
					switch q := rng.Intn(10); {
					case q < 6:
						val = []byte{byte(rng.Intn(3))} // few values: byte-equal re-records happen
					case q < 7:
						val = []byte{}
					}
					writes = append(writes, types.KV{Key: key(i), Val: val})
					if models[l][key(i)] == nil {
						models[l][key(i)] = map[int][]byte{}
					}
					models[l][key(i)][idx] = val
				}
				lays[l].Record(idx, writes)
			case p < 92:
				what = fmt.Sprintf("PurgeIdx(%d) on layer %d", idx, l)
				for k := range models[l] {
					delete(models[l][k], idx)
				}
				lays[l].PurgeIdx(idx)
			default:
				// The lower block finalizes: its net effect moves to the
				// store, the upper block rebases onto the store and a new
				// block is admitted on top.
				what = "finalize, Rebase, admit"
				final := lays[0].Final()
				for _, kv := range final {
					if kv.Val == nil {
						delete(base, kv.Key)
					} else {
						base[kv.Key] = kv.Val
					}
				}
				store.Apply(final)
				lays[1].Rebase(store)
				lays[0], models[0] = lays[1], models[1]
				lays[1], models[1] = NewBlockOverlay(lays[0]), overlayModel{}
			}
			check(step, what)
		}
	}
}

// TestOverlayRecordAllocationIndependentOfSize is the structural guard on
// the commit path: what one single-key Record allocates must not grow
// with the keys the block has already written. Recorded results arrive
// once per transaction per executor on the actor goroutine, so a Record
// that copies the overlay makes a block cost O(writes²).
func TestOverlayRecordAllocationIndependentOfSize(t *testing.T) {
	const slack = 512 // a hash-trie node or an index-list slot, not a copy of the overlay
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := NewBlockOverlay(NewKVStore())
	keys := benchKeyset()
	val := []byte("v")
	cost := make([]uint64, 400)
	var before, after runtime.MemStats
	for i := range cost {
		writes := []types.KV{{Key: keys[i], Val: val}}
		runtime.ReadMemStats(&before)
		o.Record(i, writes)
		runtime.ReadMemStats(&after)
		cost[i] = after.TotalAlloc - before.TotalAlloc
	}
	// The median of the last ten stands for "the 400th": an amortized
	// growth step of a table may land on any single call.
	last := append([]uint64(nil), cost[390:]...)
	sort.Slice(last, func(i, j int) bool { return last[i] < last[j] })
	if first, late := cost[0], last[len(last)/2]; late > first+slack {
		t.Fatalf("Record into a 400-key overlay allocates %d B, the first Record %d B: the commit path scales with overlay size", late, first)
	}
	if o.Len() != len(cost) {
		t.Fatalf("Len = %d, want %d", o.Len(), len(cost))
	}
}
