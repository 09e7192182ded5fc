package types

import (
	"bytes"
	"testing"

	"parblockchain/internal/depgraph"
)

// The codec fuzz contract: arbitrary input must either decode or return
// an error — never panic, never over-allocate past the input size — and
// anything that decodes must re-encode stably (decode(encode(decode(x)))
// is a fixed point). Seed corpora live in testdata/fuzz and are run as
// regression inputs by plain `go test`.

func fuzzTx() *Transaction {
	return &Transaction{
		ID:       "tx-1",
		App:      "app1",
		Client:   "c1",
		ClientTS: 7,
		Op: Operation{
			Method: "transfer",
			Params: []string{"a", "b", "5"},
			Reads:  []string{"a", "b"},
			Writes: []string{"a", "b"},
		},
		SubmitUnixNano: 1234567,
		Sig:            []byte{1, 2, 3},
	}
}

func FuzzUnmarshalTransaction(f *testing.F) {
	f.Add(fuzzTx().Marshal())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, err := UnmarshalTransaction(data)
		if err != nil {
			return
		}
		enc := tx.Marshal()
		tx2, err := UnmarshalTransaction(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if !bytes.Equal(enc, tx2.Marshal()) {
			t.Fatal("transaction encoding is not a fixed point")
		}
	})
}

func FuzzUnmarshalNewBlockMsg(f *testing.F) {
	tx := fuzzTx()
	block := NewBlock(3, Hash{1}, []*Transaction{tx, fuzzTx()})
	msg := &NewBlockMsg{
		Block: block,
		Graph: &depgraph.Graph{
			N:    2,
			Succ: [][]int32{{1}, nil},
			Pred: [][]int32{nil, {0}},
		},
		Apps:    []AppID{"app1"},
		Orderer: "o1",
		Sig:     []byte{9},
	}
	f.Add(msg.Marshal())
	msg.Graph = nil
	f.Add(msg.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalNewBlockMsg(data)
		if err != nil {
			return
		}
		enc := m.Marshal()
		m2, err := UnmarshalNewBlockMsg(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if !bytes.Equal(enc, m2.Marshal()) {
			t.Fatal("NEWBLOCK encoding is not a fixed point")
		}
		if m.Graph != nil {
			if err := m.Graph.Validate(); err != nil {
				t.Fatalf("decoder admitted an invalid graph: %v", err)
			}
		}
	})
}

func FuzzUnmarshalCommitMsg(f *testing.F) {
	msg := &CommitMsg{
		BlockNum: 5,
		Results: []TxResult{
			{TxID: "tx-1", Index: 0, Writes: []KV{{Key: "a", Val: []byte("1")}, {Key: "d"}}},
			{TxID: "tx-2", Index: 1, Aborted: true, AbortReason: "broke"},
		},
		Executor: "e1",
		Sig:      []byte{4, 5},
	}
	f.Add(msg.Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xfe}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalCommitMsg(data)
		if err != nil {
			return
		}
		enc := m.Marshal()
		m2, err := UnmarshalCommitMsg(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if !bytes.Equal(enc, m2.Marshal()) {
			t.Fatal("COMMIT encoding is not a fixed point")
		}
	})
}

// TestRequestMsgCodecRoundTrip pins the REQUEST codec: the transaction
// digest (the value the client signs) must survive the wire byte for
// byte, and a REQUEST without a transaction stays without one.
func TestRequestMsgCodecRoundTrip(t *testing.T) {
	req := &RequestMsg{Tx: fuzzTx()}
	reqBack, err := UnmarshalRequestMsg(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if reqBack.Tx.Digest() != req.Tx.Digest() {
		t.Fatal("REQUEST transaction digest changed across the wire")
	}
	nilReq, err := UnmarshalRequestMsg((&RequestMsg{}).Marshal())
	if err != nil || nilReq.Tx != nil {
		t.Fatalf("nil-transaction REQUEST mishandled: %v %+v", err, nilReq)
	}
}

// TestMsgCodecRoundTrip pins exact round trips for the new message
// codecs, including the nil-vs-empty write value distinction (nil is a
// deletion and must survive the wire).
func TestMsgCodecRoundTrip(t *testing.T) {
	commit := &CommitMsg{
		BlockNum: 9,
		Results: []TxResult{
			{TxID: "t1", Index: 0, Writes: []KV{
				{Key: "k", Val: []byte("v")},
				{Key: "del", Val: nil},
				{Key: "empty", Val: []byte{}},
			}},
		},
		Executor: "e2",
		Sig:      []byte{1},
	}
	got, err := UnmarshalCommitMsg(commit.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	w := got.Results[0].Writes
	if w[1].Val != nil {
		t.Fatal("deletion write became a value")
	}
	if w[2].Val == nil {
		t.Fatal("empty write became a deletion")
	}
	if got.Digest() != commit.Digest() {
		t.Fatal("COMMIT digest changed across the wire")
	}

	tx := fuzzTx()
	block := NewBlock(1, Hash{7}, []*Transaction{tx})
	msg := &NewBlockMsg{Block: block, Apps: block.Apps(), Orderer: "o1", Sig: []byte{2}}
	back, err := UnmarshalNewBlockMsg(msg.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Block.Hash() != block.Hash() {
		t.Fatal("block hash changed across the wire")
	}
	if !back.Block.VerifyTxRoot() {
		t.Fatal("tx root no longer verifies after round trip")
	}
	if back.Digest() != msg.Digest() {
		t.Fatal("NEWBLOCK digest changed across the wire")
	}
}
