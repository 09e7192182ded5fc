package ledger

import (
	"errors"
	"testing"

	"parblockchain/internal/types"
)

func tx(id string) *types.Transaction {
	return &types.Transaction{ID: types.TxID(id), App: "app1", Client: "c1",
		Op: types.Operation{Method: "m"}}
}

func entryFor(l *Ledger, ids ...string) Entry {
	txns := make([]*types.Transaction, len(ids))
	results := make([]types.TxResult, len(ids))
	for i, id := range ids {
		txns[i] = tx(id)
		results[i] = types.TxResult{TxID: types.TxID(id), Index: i}
	}
	return Entry{
		Block:   types.NewBlock(l.Height(), l.LastHash(), txns),
		Results: results,
	}
}

func TestAppendAndGet(t *testing.T) {
	l := New()
	if l.Height() != 0 || l.LastHash() != types.ZeroHash {
		t.Fatal("fresh ledger must be empty with zero hash")
	}
	if err := l.Append(entryFor(l, "t1", "t2")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Append(entryFor(l, "t3")); err != nil {
		t.Fatalf("Append 2: %v", err)
	}
	if l.Height() != 2 {
		t.Fatalf("Height = %d, want 2", l.Height())
	}
	if l.TxCount() != 3 {
		t.Fatalf("TxCount = %d, want 3", l.TxCount())
	}
	e, err := l.Get(1)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if e.Block.Txns[0].ID != "t3" {
		t.Fatal("wrong block returned")
	}
	if _, err := l.Get(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(2) err = %v, want ErrNotFound", err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestAppendRejectsWrongNumber(t *testing.T) {
	l := New()
	e := entryFor(l, "t1")
	e.Block.Header.Number = 5
	if err := l.Append(e); !errors.Is(err, ErrBadNumber) {
		t.Fatalf("err = %v, want ErrBadNumber", err)
	}
}

func TestAppendRejectsWrongPrevHash(t *testing.T) {
	l := New()
	if err := l.Append(entryFor(l, "t1")); err != nil {
		t.Fatal(err)
	}
	bad := Entry{
		Block:   types.NewBlock(1, types.ZeroHash, []*types.Transaction{tx("t2")}),
		Results: []types.TxResult{{TxID: "t2"}},
	}
	if err := l.Append(bad); !errors.Is(err, ErrBadPrevHash) {
		t.Fatalf("err = %v, want ErrBadPrevHash", err)
	}
}

func TestAppendRejectsTamperedBody(t *testing.T) {
	l := New()
	e := entryFor(l, "t1")
	e.Block.Txns = append(e.Block.Txns, tx("sneaky"))
	e.Results = append(e.Results, types.TxResult{TxID: "sneaky"})
	if err := l.Append(e); !errors.Is(err, ErrBadTxRoot) {
		t.Fatalf("err = %v, want ErrBadTxRoot", err)
	}
}

func TestAppendRejectsResultMismatch(t *testing.T) {
	l := New()
	e := entryFor(l, "t1", "t2")
	e.Results = e.Results[:1]
	if err := l.Append(e); err == nil {
		t.Fatal("expected error for misaligned results")
	}
}

func TestVerifyDetectsRewrittenHistory(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		if err := l.Append(entryFor(l, "t")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify clean chain: %v", err)
	}
	// Tamper with a middle block's body directly.
	e, _ := l.Get(2)
	e.Block.Txns[0].Op.Method = "evil"
	if err := l.Verify(); err == nil {
		t.Fatal("Verify must detect a tampered body")
	}
}

// Verify is an audit from content: a sealed transaction edited in place
// still returns its cached digest, so a root built from cached leaves
// would miss the edit that a root re-hashed from content catches.
func TestVerifyDetectsRewrittenSealedTransaction(t *testing.T) {
	l := New()
	for i := 0; i < 3; i++ {
		e := entryFor(l, "t1", "t2")
		for j, tx := range e.Block.Txns {
			decoded, err := types.UnmarshalTransaction(tx.Marshal()) // sealed
			if err != nil {
				t.Fatal(err)
			}
			e.Block.Txns[j] = decoded
		}
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify clean chain: %v", err)
	}
	e, _ := l.Get(1)
	e.Block.Txns[1].Op.Method = "evil"
	if !e.Block.VerifyTxRoot() {
		t.Fatal("the cached leaf should hide the edit from VerifyTxRoot")
	}
	if err := l.Verify(); !errors.Is(err, ErrBadTxRoot) {
		t.Fatalf("Verify = %v, want ErrBadTxRoot for an edited sealed transaction", err)
	}
}

func TestRestoredLedgerResumesAtBase(t *testing.T) {
	// Build a full chain, then restore a ledger at height 3 the way the
	// durability recovery does, and continue the same chain on it.
	full := New()
	for i := 0; i < 5; i++ {
		if err := full.Append(entryFor(full, "t")); err != nil {
			t.Fatal(err)
		}
	}
	anchor, err := full.Get(2)
	if err != nil {
		t.Fatal(err)
	}

	l := NewAt(3, anchor.Block.Hash())
	if l.Height() != 3 || l.Base() != 3 || l.LastHash() != anchor.Block.Hash() {
		t.Fatalf("restored ledger: height=%d base=%d", l.Height(), l.Base())
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify empty restored ledger: %v", err)
	}
	// Pruned history is distinguishable from missing future blocks.
	if _, err := l.Get(0); !errors.Is(err, ErrPruned) {
		t.Fatalf("Get(0) err = %v, want ErrPruned", err)
	}
	if _, err := l.Get(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(3) err = %v, want ErrNotFound", err)
	}
	// Appends must chain from the anchor: the full chain's blocks 3 and 4
	// append cleanly, a re-anchored block does not.
	wrong := entryFor(l, "t")
	wrong.Block.Header.PrevHash = types.ZeroHash
	wrong.Block.Header.Number = 3
	if err := l.Append(wrong); !errors.Is(err, ErrBadPrevHash) {
		t.Fatalf("err = %v, want ErrBadPrevHash", err)
	}
	for h := uint64(3); h < 5; h++ {
		e, err := full.Get(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(e); err != nil {
			t.Fatalf("append block %d: %v", h, err)
		}
	}
	if l.Height() != 5 || l.LastHash() != full.LastHash() {
		t.Fatal("restored chain diverged from the full chain")
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if l.TxCount() != 2 {
		t.Fatalf("TxCount = %d, want 2 (held entries only)", l.TxCount())
	}
	e, err := l.Get(4)
	if err != nil || e.Block.Header.Number != 4 {
		t.Fatalf("Get(4): %v %+v", err, e)
	}
}

func TestNewAtZeroEqualsNew(t *testing.T) {
	l := NewAt(0, types.ZeroHash)
	if err := l.Append(entryFor(l, "t1")); err != nil {
		t.Fatalf("Append on NewAt(0): %v", err)
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyBlocksAllowed(t *testing.T) {
	l := New()
	if err := l.Append(entryFor(l)); err != nil {
		t.Fatalf("empty block: %v", err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}
