package types

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"parblockchain/internal/depgraph"
)

// The codec fuzz contract: arbitrary input must either decode or return
// an error — never panic, never over-allocate past the input size — and
// anything that decodes must re-encode to exactly its input
// (encode(decode(x)) == x): every encoding is canonical, so a flag byte
// other than 0 or 1 and trailing bytes are refused. Seed corpora live in testdata/fuzz and are run as
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

// referenceDecode is the plain field-by-field transaction decode, one
// allocation per string and list, that the lean decoder must agree with.
// The result is unsealed, so its Digest re-encodes its fields.
func referenceDecode(b []byte) (*Transaction, error) {
	r := NewByteReader(b)
	t := &Transaction{ID: TxID(r.Str()), App: AppID(r.Str()), Client: NodeID(r.Str()), ClientTS: r.U64()}
	t.Op.Method = r.Str()
	t.Op.Params = r.Strs()
	t.Op.Reads = r.Strs()
	t.Op.Writes = r.Strs()
	t.SubmitUnixNano = r.I64()
	t.Sig = r.Blob()
	return t, FinishDecode(r, "transaction")
}

func FuzzUnmarshalTransaction(f *testing.F) {
	f.Add(fuzzTx().Marshal())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, err := UnmarshalTransaction(data)
		ref, refErr := referenceDecode(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decode error %v, reference decode error %v", err, refErr)
		}
		if err != nil {
			return
		}
		fields := *tx
		fields.digest, fields.sealed = Hash{}, nil
		if !reflect.DeepEqual(&fields, ref) {
			t.Fatalf("decode = %+v, reference decode = %+v", &fields, ref)
		}
		if tx.Digest() != ref.Digest() {
			t.Fatal("the digest hashed from the wire bytes differs from a re-encode's")
		}
		for _, list := range [][]string{tx.Op.Params, tx.Op.Reads, tx.Op.Writes} {
			if len(list) != cap(list) {
				t.Fatal("a decoded list has spare capacity: an append would overwrite its neighbour")
			}
		}
		if !bytes.Equal(tx.Marshal(), data) {
			t.Fatal("an accepted transaction does not re-encode to its input")
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
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("an accepted NEWBLOCK does not re-encode to its input")
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
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("an accepted COMMIT does not re-encode to its input")
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

func FuzzUnmarshalCommitNotifyMsg(f *testing.F) {
	f.Add((&CommitNotifyMsg{TxID: "c1-7", BlockNum: 12}).Marshal())
	f.Add((&CommitNotifyMsg{TxID: "c1-8", BlockNum: 12, Aborted: true, AbortReason: "insufficient funds"}).Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 17))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalCommitNotifyMsg(data)
		if err != nil {
			return
		}
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("an accepted COMMIT-NOTIFY does not re-encode to its input")
		}
	})
}

// TestCommitNotifyGolden pins the commit notification's wire bytes:
// length-prefixed TxID, big-endian BlockNum, one abort byte, then the
// length-prefixed reason.
func TestCommitNotifyGolden(t *testing.T) {
	for _, c := range []struct {
		msg  CommitNotifyMsg
		want string
	}{
		{CommitNotifyMsg{TxID: "c1-7", BlockNum: 12},
			"000000000000000463312d37" + "000000000000000c" + "00" + "0000000000000000"},
		{CommitNotifyMsg{TxID: "c1-8", BlockNum: 12, Aborted: true, AbortReason: "insufficient funds"},
			"000000000000000463312d38" + "000000000000000c" + "01" + "0000000000000012696e73756666696369656e742066756e6473"},
	} {
		raw := c.msg.Marshal()
		if got := hex.EncodeToString(raw); got != c.want {
			t.Errorf("%+v encodes to %s, want %s", c.msg, got, c.want)
		}
		back, err := UnmarshalCommitNotifyMsg(raw)
		if err != nil || *back != c.msg {
			t.Errorf("%+v decodes to %+v, %v", c.msg, back, err)
		}
	}
}

// TestCommitNotifyDecodeAllocs pins the notification decoder's budget:
// the message and its TxID, plus the reason when there is one.
func TestCommitNotifyDecodeAllocs(t *testing.T) {
	for _, c := range []struct {
		msg  CommitNotifyMsg
		want float64
	}{
		{CommitNotifyMsg{TxID: "0123456789abcdef-c1", BlockNum: 9}, 2},
		{CommitNotifyMsg{TxID: "0123456789abcdef-c1", BlockNum: 9, Aborted: true, AbortReason: "broke"}, 3},
	} {
		raw := c.msg.Marshal()
		if n := testing.AllocsPerRun(100, func() {
			if _, err := UnmarshalCommitNotifyMsg(raw); err != nil {
				t.Fatal(err)
			}
		}); n > c.want {
			t.Fatalf("decoding %+v allocates %v times, want at most %v", c.msg, n, c.want)
		}
	}
}

// TestDecodersRejectTrailingBytes: a frame or log entry carries exactly
// one message, so a valid encoding followed by one more byte is refused.
func TestDecodersRejectTrailingBytes(t *testing.T) {
	block := NewBlock(1, Hash{7}, []*Transaction{fuzzTx()})
	for _, c := range []struct {
		name   string
		raw    []byte
		decode func([]byte) error
	}{
		{"transaction", fuzzTx().Marshal(), func(b []byte) error { _, err := UnmarshalTransaction(b); return err }},
		{"REQUEST", (&RequestMsg{Tx: fuzzTx()}).Marshal(), func(b []byte) error { _, err := UnmarshalRequestMsg(b); return err }},
		{"NEWBLOCK", (&NewBlockMsg{Block: block, Apps: block.Apps(), Orderer: "o1", Sig: []byte{2}}).Marshal(),
			func(b []byte) error { _, err := UnmarshalNewBlockMsg(b); return err }},
		{"COMMIT", (&CommitMsg{BlockNum: 9, Results: []TxResult{{TxID: "t1"}}, Executor: "e2", Sig: []byte{1}}).Marshal(),
			func(b []byte) error { _, err := UnmarshalCommitMsg(b); return err }},
		{"COMMIT-NOTIFY", (&CommitNotifyMsg{TxID: "t1", BlockNum: 9}).Marshal(),
			func(b []byte) error { _, err := UnmarshalCommitNotifyMsg(b); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(c.raw); err != nil {
				t.Fatalf("valid encoding refused: %v", err)
			}
			if err := c.decode(append(c.raw, 0)); !errors.Is(err, ErrCodec) {
				t.Fatalf("one trailing byte gave %v, want ErrCodec", err)
			}
		})
	}
}
