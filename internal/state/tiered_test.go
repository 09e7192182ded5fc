package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"parblockchain/internal/types"
)

// tieredOracle drives identical operation streams into a KVStore and a
// TieredStore and asserts the observable state (hash, len, contents)
// never diverges — the bit-identical-across-backends contract every
// equivalence suite builds on, checked at the state layer first.

func newTestTiered(t *testing.T, hotBytes int64) *TieredStore {
	t.Helper()
	ts, err := NewTieredStore(TieredConfig{
		Dir:          t.TempDir(),
		HotBytes:     hotBytes,
		SegmentBytes: 8 << 10, // tiny segments so tests exercise rolls
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

func randVal(rng *rand.Rand) []byte {
	v := make([]byte, rng.Intn(200))
	rng.Read(v)
	return v
}

func TestTieredMatchesKVStore(t *testing.T) {
	for _, hotBytes := range []int64{4 << 10, 1 << 30} {
		t.Run(fmt.Sprintf("hot=%d", hotBytes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(hotBytes)))
			mem := NewKVStore()
			ts := newTestTiered(t, hotBytes)
			key := func() types.Key {
				return types.Key(fmt.Sprintf("acct%04d", rng.Intn(300)))
			}
			for batch := 0; batch < 60; batch++ {
				n := 1 + rng.Intn(40)
				writes := make([]types.KV, 0, n)
				for i := 0; i < n; i++ {
					kv := types.KV{Key: key()}
					switch rng.Intn(10) {
					case 0: // deletion
					case 1:
						kv.Val = []byte{} // present but empty
					default:
						kv.Val = randVal(rng)
					}
					writes = append(writes, kv)
				}
				// Neither store mutates values, so sharing slices is safe.
				mem.Apply(writes)
				ts.Apply(writes)
				if got, want := ts.Hash(), mem.Hash(); got != want {
					t.Fatalf("batch %d: hash diverged: tiered %s, mem %s", batch, got, want)
				}
				// Spot-check reads, including through the cold tier.
				for i := 0; i < 20; i++ {
					k := key()
					mv, mok := mem.Get(k)
					tv, tok := ts.Get(k)
					if mok != tok || !bytes.Equal(mv, tv) {
						t.Fatalf("batch %d: Get(%q) = (%q,%v), mem (%q,%v)",
							batch, k, tv, tok, mv, mok)
					}
					if mok && (mv == nil) != (tv == nil) {
						t.Fatalf("batch %d: Get(%q) nil-ness diverged", batch, k)
					}
				}
			}
			if mem.Len() != ts.Len() {
				t.Fatalf("len diverged: tiered %d, mem %d", ts.Len(), mem.Len())
			}
			ms, tss := mem.Snapshot(), ts.Snapshot()
			if len(ms) != len(tss) {
				t.Fatalf("snapshot sizes diverged: tiered %d, mem %d", len(tss), len(ms))
			}
			for k, v := range ms {
				if tv, ok := tss[k]; !ok || !bytes.Equal(v, tv) {
					t.Fatalf("snapshot diverged at %q", k)
				}
			}
			if hotBytes == 4<<10 {
				if st := ts.Stats(); st.Evictions == 0 || st.ColdReads == 0 {
					t.Fatalf("tiny budget forced no tier traffic: %+v", st)
				}
			}
		})
	}
}

func TestTieredPromotion(t *testing.T) {
	// Budget sized so single entries fit per shard (promotion possible)
	// but the full working set does not (eviction forced).
	ts := newTestTiered(t, 64<<10)
	var writes []types.KV
	for i := 0; i < 2000; i++ {
		writes = append(writes, types.KV{
			Key: types.Key(fmt.Sprintf("k%03d", i)),
			Val: []byte(fmt.Sprintf("v%03d", i)),
		})
	}
	ts.Apply(writes)
	if ts.Stats().Evictions == 0 {
		t.Fatal("expected evictions under a 64KiB budget")
	}
	// Find a cold key, read it (promoting), then read it again hot.
	var coldKey types.Key
	var coldVal []byte
	for _, kv := range writes {
		sh := &ts.shards[shardIndex(kv.Key)]
		sh.mu.RLock()
		_, hot := sh.hot[kv.Key]
		sh.mu.RUnlock()
		if !hot {
			coldKey, coldVal = kv.Key, kv.Val
			break
		}
	}
	if coldKey == "" {
		t.Fatal("no cold key found")
	}
	before := ts.Stats().ColdReads
	if got, ok := ts.Get(coldKey); !ok || !bytes.Equal(got, coldVal) {
		t.Fatalf("Get(%q) = (%q,%v), want %q", coldKey, got, ok, coldVal)
	}
	if got := ts.Stats().ColdReads; got != before+1 {
		t.Fatalf("cold reads = %d, want %d", got, before+1)
	}
	if got, ok := ts.Get(coldKey); !ok || !bytes.Equal(got, coldVal) {
		t.Fatalf("second Get(%q) = (%q,%v), want %q", coldKey, got, ok, coldVal)
	}
	if got := ts.Stats().ColdReads; got != before+1 {
		t.Fatalf("promotion did not stick: cold reads = %d", got)
	}
}

func TestTieredCaptureReopen(t *testing.T) {
	dir := t.TempDir()
	ts, err := NewTieredStore(TieredConfig{Dir: dir, HotBytes: 2 << 10, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var writes []types.KV
	for i := 0; i < 400; i++ {
		writes = append(writes, types.KV{
			Key: types.Key(fmt.Sprintf("acct%04d", i)),
			Val: randVal(rng),
		})
	}
	ts.Apply(writes)
	// Overwrite some, delete some (including keys already flushed cold,
	// exercising tombstones).
	for i := 0; i < 400; i += 3 {
		ts.Put(types.Key(fmt.Sprintf("acct%04d", i)), randVal(rng))
	}
	for i := 0; i < 400; i += 7 {
		ts.Put(types.Key(fmt.Sprintf("acct%04d", i)), nil)
	}
	snap := ts.CaptureSnapshot()
	wantSnap := ts.Snapshot()
	// Writes after the capture must be invisible to a reopen from it.
	ts.Apply([]types.KV{{Key: "post-capture", Val: []byte("x")}})
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenTieredStore(TieredConfig{Dir: dir, HotBytes: 2 << 10, SegmentBytes: 8 << 10},
		snap.Segments)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, kvs := range snap.Dirty {
		re.Apply(kvs)
	}
	if got := re.Hash(); got != snap.Hash {
		t.Fatalf("reopened hash %s, capture said %s", got, snap.Hash)
	}
	if got := uint64(re.Len()); got != snap.Records {
		t.Fatalf("reopened %d records, capture said %d", re.Len(), snap.Records)
	}
	reSnap := re.Snapshot()
	if len(reSnap) != len(wantSnap) {
		t.Fatalf("reopened %d keys, want %d", len(reSnap), len(wantSnap))
	}
	for k, v := range wantSnap {
		if rv, ok := reSnap[k]; !ok || !bytes.Equal(v, rv) {
			t.Fatalf("reopened contents diverged at %q", k)
		}
	}
	if _, ok := re.Get("post-capture"); ok {
		t.Fatal("post-capture write survived the truncating reopen")
	}
}

func TestTieredReset(t *testing.T) {
	ts := newTestTiered(t, 2<<10)
	for i := 0; i < 300; i++ {
		ts.Put(types.Key(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	empty := NewKVStore()
	ts.Reset()
	if ts.Len() != 0 || ts.Hash() != empty.Hash() {
		t.Fatalf("reset left %d records, hash %s", ts.Len(), ts.Hash())
	}
	ts.Put("after", []byte("reset"))
	if v, ok := ts.Get("after"); !ok || string(v) != "reset" {
		t.Fatal("store unusable after reset")
	}
}

func FuzzDecodeColdRecord(f *testing.F) {
	f.Add(marshalColdRecord(&coldRecord{key: "acct0001", ver: 3, val: []byte("100")}))
	f.Add(marshalColdRecord(&coldRecord{key: "gone", tomb: true}))
	f.Add(marshalColdRecord(&coldRecord{key: "", ver: 1, val: []byte{}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeColdRecord(data)
		if err != nil {
			return
		}
		enc := marshalColdRecord(&rec)
		rec2, err := decodeColdRecord(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if !bytes.Equal(enc, marshalColdRecord(&rec2)) {
			t.Fatal("cold record encoding is not a fixed point")
		}
	})
}
