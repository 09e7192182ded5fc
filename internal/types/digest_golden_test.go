package types

import (
	"strings"
	"testing"
)

// goldenTxns are fixed inputs for TestDigestGolden. The third encodes to
// more than the encoder's initial 256-byte capacity, so the grown-buffer
// path is pinned too.
func goldenTxns() []*Transaction {
	return []*Transaction{
		sampleTx("app1", "transfer", []Key{"acct/1", "acct/2"}, []Key{"acct/1", "acct/2"}),
		sampleTx("app2", "deposit", nil, []Key{"acct/9"}),
		sampleTx("app3", "audit", []Key{strings.Repeat("r", 200)}, []Key{strings.Repeat("w", 200)}),
	}
}

// TestDigestGolden pins every digest the protocol signs, votes on or
// chains by to hex constants generated before the encoder's buffer was
// pooled: how the encoding buffer is obtained must never show in a hash.
func TestDigestGolden(t *testing.T) {
	txns := goldenTxns()
	results := []TxResult{
		{TxID: "t1", Index: 0, Writes: []KV{{Key: "acct/1", Val: []byte("90")}, {Key: "acct/2", Val: []byte("110")}}},
		{TxID: "t2", Index: 1, Aborted: true, AbortReason: "insufficient funds"},
		{TxID: "t3", Index: 2, Writes: []KV{{Key: "gone", Val: nil}, {Key: strings.Repeat("w", 200), Val: make([]byte, 300)}}},
	}
	commit := &CommitMsg{BlockNum: 7, Results: results, Executor: "e1"}
	var prev Hash
	copy(prev[:], "previous block hash previous blo")
	block := NewBlock(7, prev, txns)

	for _, c := range []struct {
		name string
		got  Hash
		want string
	}{
		{"Transaction.Digest[0]", txns[0].Digest(), "70f03d427a82e560ec21f7ba17b1bd0eb4fd98e83306af81d2db03d09225b40f"},
		{"Transaction.Digest[1]", txns[1].Digest(), "3b0acee09a1dab0b8d90c10b00b34cc6da1a41488c66696b276223bd9b14a66d"},
		{"Transaction.Digest[2]", txns[2].Digest(), "178f4d16aedc886609c14ee1936a709d3701cd51a28fc020f46854e12432fe3d"},
		{"TxResult.Digest[0]", results[0].Digest(), "01853fe87f5433740e408af360c730e01e8fecb8f40dfc9af5e05391017601d9"},
		{"TxResult.Digest[1]", results[1].Digest(), "a00f8bc98a969bab1a9b16eabd533c1ad25cef00d7b319ddc24ca2f9b54662c2"},
		{"TxResult.Digest[2]", results[2].Digest(), "11b6ec2bf3a2228d67f926ec9a56aac0bf5a28d126c31855471eaa9467c2b93b"},
		{"CommitMsg.Digest", commit.Digest(), "effc8db46400e7997d0e03ba54b83e0e3590074855a83f53f8ac5a8744fcd18b"},
		{"Block.Hash", block.Hash(), "7a05f3c9a5acd2b224ccfcc2cab2f2f585a130e57b2e1cfe24efe581728b2f34"},
		{"TxMerkleRoot(3)", TxMerkleRoot(txns), "c9f48f94495b9a6db41a18460f9952e1f3337b7f81bf88dd057e742a221bfa36"},
		{"TxMerkleRoot(1)", TxMerkleRoot(txns[:1]), "70f03d427a82e560ec21f7ba17b1bd0eb4fd98e83306af81d2db03d09225b40f"},
	} {
		if c.got.String() != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestDigestDoesNotAllocate: a transaction digest is computed several
// times per transaction per node, so its encoding buffer must not be a
// fresh heap allocation each time — sealed or not.
func TestDigestDoesNotAllocate(t *testing.T) {
	tx := goldenTxns()[0]
	if n := testing.AllocsPerRun(100, func() { tx.Digest() }); n != 0 {
		t.Fatalf("Transaction.Digest allocates %v times per call, want 0", n)
	}
	tx.Seal()
	if n := testing.AllocsPerRun(100, func() { tx.Digest() }); n != 0 {
		t.Fatalf("sealed Transaction.Digest allocates %v times per call, want 0", n)
	}
}

// TestSealDigestGolden pins the digest of the retired BlockSealMsg.
// Nothing sends seals any more, but finalization records written by
// segment-streaming nodes carry a quorum of signatures over this digest,
// and state sync recomputes it to verify them: it must never change.
func TestSealDigestGolden(t *testing.T) {
	var prev Hash
	copy(prev[:], "previous block hash previous blo")
	block := NewBlock(7, prev, goldenTxns())
	var cum Hash
	copy(cum[:], "cumulative segment digest cumula")
	seal := &BlockSealMsg{Header: block.Header, Segments: 3, Cum: cum, Apps: block.Apps()}
	const want = "68a607e4dc9e60f16ee1e37f1f5048eba3de285a15aeb807a1d59386be64ca07"
	if got := seal.Digest().String(); got != want {
		t.Errorf("BlockSealMsg.Digest = %s, want %s", got, want)
	}
}
