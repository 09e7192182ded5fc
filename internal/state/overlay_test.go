package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"parblockchain/internal/types"
)

// declare returns one transaction per key list, each declaring its list
// as its write set — the block an overlay is built for.
func declare(sets ...[]types.Key) []*types.Transaction {
	txns := make([]*types.Transaction, len(sets))
	for i, keys := range sets {
		txns[i] = &types.Transaction{Op: types.Operation{Writes: keys}}
	}
	return txns
}

// declareAll returns n transactions that each declare every key.
func declareAll(n int, keys ...types.Key) []*types.Transaction {
	sets := make([][]types.Key, n)
	for i := range sets {
		sets[i] = keys
	}
	return declare(sets...)
}

// sameValue reports byte equality, telling a deletion (nil) from an empty
// value.
func sameValue(a, b []byte) bool {
	return (a == nil) == (b == nil) && bytes.Equal(a, b)
}

// TestOverlayChainReadsNewestPredecessorWrite covers the pipelined
// chaining contract: an overlay stacked on another overlay sees the
// predecessor's uncommitted writes, its own writes win, and deletions
// shadow through the chain.
func TestOverlayChainReadsNewestPredecessorWrite(t *testing.T) {
	store := NewKVStore()
	store.Apply([]types.KV{{Key: "a", Val: []byte("base")}, {Key: "d", Val: []byte("x")}})
	prev := NewBlockOverlay(store, declare([]types.Key{"a", "d"}))
	prev.Record(0, []types.KV{{Key: "a", Val: []byte("prev")}, {Key: "d", Val: nil}})
	next := NewBlockOverlay(prev, declare([]types.Key{"a"}))
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
	prev := NewBlockOverlay(store, declare([]types.Key{"a", "gone", "b"}))
	prev.Record(0, []types.KV{{Key: "a", Val: []byte("v1")}, {Key: "gone", Val: nil}, {Key: "b", Val: []byte("w")}})
	next := NewBlockOverlay(prev, nil)

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
// index twice: per key, the last call's value replaces the earlier one —
// whether or not the call's other keys already had an entry at that
// index — a re-record allocates nothing, and the index still revokes as
// a whole.
func TestOverlayRerecordLastCallWins(t *testing.T) {
	o := NewBlockOverlay(NewKVStore(), declare(nil, []types.Key{"k"}, nil, []types.Key{"k", "j"}))
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
		t.Fatalf("re-record allocates %v times, want 0", n)
	}
	o.PurgeIdx(3)
	if v, _ := o.Get("k"); string(v) != "old" || len(o.Final()) != 1 {
		t.Fatalf("after PurgeIdx(3): Get(k) = %q, Final = %v; want index 1's value alone, no stale copy of index 3", v, o.Final())
	}
}

// TestOverlayUndeclaredRecordPanics: the overlay is built from the
// declared write sets, so recording a key the transaction did not
// declare — even one another transaction of the block declares — is a
// programming error, not a silent write.
func TestOverlayUndeclaredRecordPanics(t *testing.T) {
	o := NewBlockOverlay(NewKVStore(), declare([]types.Key{"a"}, []types.Key{"b"}))
	for _, c := range []struct {
		idx int
		key types.Key
	}{{0, "b"}, {1, "a"}, {0, "nowhere"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Record(%d, %q) did not panic on an undeclared key", c.idx, c.key)
				}
			}()
			o.Record(c.idx, []types.KV{{Key: c.key, Val: []byte("v")}})
		}()
	}
	if got := o.Final(); len(got) != 0 {
		t.Fatalf("Final = %v after only undeclared records, want nothing", got)
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

// TestOverlayModel drives two chained overlays, each built for a block
// of random declared write sets (some empty, some naming a key twice),
// through seeded random interleavings of Record (fresh, same-index
// re-record, deletions, empty values), PurgeIdx and the
// finalize-and-Rebase slide, and after every step compares Get and
// At(b).Get at every bound, and Final — content and first-declaration
// order — with the reference model.
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
		block := func() []*types.Transaction {
			sets := make([][]types.Key, nIdx)
			for i := range sets {
				for _, k := range rng.Perm(nKeys)[:rng.Intn(nKeys+1)] {
					sets[i] = append(sets[i], key(k))
				}
				if len(sets[i]) > 0 && rng.Intn(5) == 0 {
					sets[i] = append(sets[i], sets[i][0])
				}
			}
			return declare(sets...)
		}
		store := NewKVStore()
		base := map[types.Key][]byte{}
		for i := 0; i < nKeys; i += 2 {
			base[key(i)] = []byte{byte(i)}
			store.Put(key(i), base[key(i)])
		}
		// lays[0] sits on the store, lays[1] on lays[0].
		blocks := [2][]*types.Transaction{block(), block()}
		lays := [2]*BlockOverlay{}
		lays[0] = NewBlockOverlay(store, blocks[0])
		lays[1] = NewBlockOverlay(lays[0], blocks[1])
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
				for i := 0; i < nKeys; i++ {
					k := key(i)
					for b := 0; b <= nIdx+1; b++ {
						r, bound := o.At(b), b
						if b == nIdx+1 {
							r, bound = o, noIdx
						}
						got, ok := r.Get(k)
						wv, wok := want(l, k, bound)
						if ok != wok || ok && !sameValue(got, wv) {
							t.Fatalf("seed %d step %d (%s): layer %d key %s bound %d = %q,%v, want %q,%v",
								seed, step, what, l, k, b, got, ok, wv, wok)
						}
					}
				}
				// Final lists each written key once, in the order the
				// block first declares it.
				var final []types.KV
				seen := map[types.Key]bool{}
				for _, tx := range blocks[l] {
					for _, k := range tx.Op.Writes {
						if v, found := models[l].at(k, noIdx); found && !seen[k] {
							final = append(final, types.KV{Key: k, Val: v})
						}
						seen[k] = true
					}
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
				declared := blocks[l][idx].Op.Writes
				var writes []types.KV
				for _, i := range rng.Perm(len(declared))[:rng.Intn(len(declared)+1)] {
					var val []byte // a deletion
					switch q := rng.Intn(10); {
					case q < 6:
						val = []byte{byte(rng.Intn(3))} // few values: byte-equal re-records happen
					case q < 7:
						val = []byte{}
					}
					k := declared[i]
					writes = append(writes, types.KV{Key: k, Val: val})
					if models[l][k] == nil {
						models[l][k] = map[int][]byte{}
					}
					models[l][k][idx] = val
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
				lays[0], models[0], blocks[0] = lays[1], models[1], blocks[1]
				blocks[1] = block()
				lays[1], models[1] = NewBlockOverlay(lays[0], blocks[1]), overlayModel{}
			}
			check(step, what)
		}
	}
}

// TestOverlayRecordDoesNotAllocate is the structural guard on the commit
// path: the overlay's slots exist from admission, so recording a result —
// however many keys the block has already written, re-recorded or after
// a revocation — only stores pointers. Recorded results arrive once per
// transaction per executor on the actor goroutine.
func TestOverlayRecordDoesNotAllocate(t *testing.T) {
	keys := benchKeyset()[:400]
	sets := make([][]types.Key, len(keys))
	writes := make([][]types.KV, len(keys))
	for i, k := range keys {
		sets[i] = []types.Key{k, "hot"}
		writes[i] = []types.KV{{Key: k, Val: []byte("v")}, {Key: "hot", Val: []byte(k)}}
	}
	o := NewBlockOverlay(NewKVStore(), declare(sets...))
	next := 0
	if n := testing.AllocsPerRun(len(keys)-1, func() { o.Record(next, writes[next]); next++ }); n != 0 {
		t.Fatalf("Record allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { o.PurgeIdx(7); o.Record(7, writes[7]) }); n != 0 {
		t.Fatalf("PurgeIdx + re-Record allocates %v times, want 0", n)
	}
	if v, _ := o.Get("hot"); string(v) != keys[len(keys)-1] {
		t.Fatalf("Get(hot) = %q, want the last transaction's write", v)
	}
	if got := len(o.Final()); got != len(keys)+1 {
		t.Fatalf("Final holds %d keys, want %d", got, len(keys)+1)
	}
}
