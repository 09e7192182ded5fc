package types

import (
	"sync"
	"testing"
)

// TestSealMatchesContentDigest: sealing caches exactly the digest the
// content hashes to, for every golden transaction.
func TestSealMatchesContentDigest(t *testing.T) {
	for i, tx := range goldenTxns() {
		want := tx.contentDigest()
		if got := tx.Seal(); got != want {
			t.Errorf("golden %d: Seal = %s, want %s", i, got, want)
		}
		if got := tx.Digest(); got != want {
			t.Errorf("golden %d: sealed Digest = %s, want %s", i, got, want)
		}
	}
}

// TestSealedCopyIsUnsealed: a struct copy of a sealed transaction hashes
// its own content, so editing the copy changes its digest while the
// original keeps its sealed one.
func TestSealedCopyIsUnsealed(t *testing.T) {
	tx := goldenTxns()[0]
	sealed := tx.Seal()
	cp := *tx
	if cp.Digest() != sealed {
		t.Fatal("an unedited copy must hash to the same digest")
	}
	cp.Op.Method = "deposit"
	if cp.Digest() == sealed {
		t.Fatal("an edited copy must not be served the sealed digest")
	}
	if cp.Digest() != cp.contentDigest() {
		t.Fatal("an edited copy must hash its own content")
	}
	if tx.Digest() != sealed {
		t.Fatal("editing a copy must not touch the original's digest")
	}
}

// TestDecodeSealsOnlyCleanInput: a cleanly decoded transaction is sealed;
// a truncated or malformed one is not.
func TestDecodeSealsOnlyCleanInput(t *testing.T) {
	raw := goldenTxns()[1].Marshal()
	if tx := decodeTransaction(NewByteReader(raw)); tx.sealed != tx {
		t.Fatal("a clean decode must seal")
	}
	for _, cut := range []int{0, 1, len(raw) / 2, len(raw) - 1} {
		r := NewByteReader(raw[:cut])
		tx := decodeTransaction(r)
		if r.Err() == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
		if tx.sealed != nil {
			t.Errorf("truncation at %d sealed a malformed transaction", cut)
		}
	}
}

// TestSealedBlockConcurrentReaders: executors in one process verify the
// same decoded block at once. Reading sealed digests must be race-free
// (run with -race): the cache is filled at decode, never lazily.
func TestSealedBlockConcurrentReaders(t *testing.T) {
	src := NewBlock(3, ZeroHash, goldenTxns())
	back, err := UnmarshalNewBlockMsg((&NewBlockMsg{Block: src, Orderer: "o1"}).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	block := back.Block
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for j, tx := range block.Txns {
					if tx.Digest() != src.Txns[j].Digest() {
						t.Errorf("tx %d: sealed digest differs from the sender's", j)
						return
					}
				}
				if !block.VerifyTxRoot() {
					t.Error("sealed block failed its root check")
					return
				}
			}
		}()
	}
	wg.Wait()
}
