package types

import (
	"reflect"
	"testing"
	"testing/quick"

	"parblockchain/internal/depgraph"
)

// blockGraph builds a small dependency graph for message-digest tests.
func blockGraph(n int, edges [][2]int) *depgraph.Graph {
	g := &depgraph.Graph{N: n, Succ: make([][]int32, n), Pred: make([][]int32, n)}
	for _, e := range edges {
		g.Succ[e[0]] = append(g.Succ[e[0]], int32(e[1]))
		g.Pred[e[1]] = append(g.Pred[e[1]], int32(e[0]))
	}
	return g
}

func sampleTx(app AppID, method string, reads, writes []Key) *Transaction {
	return &Transaction{
		App:      app,
		Client:   "c1",
		ClientTS: 7,
		Op: Operation{
			Method: method,
			Params: []string{"a", "b", "3"},
			Reads:  reads,
			Writes: writes,
		},
		SubmitUnixNano: 12345,
	}
}

func TestDigestDeterministic(t *testing.T) {
	a := sampleTx("app1", "transfer", []Key{"x"}, []Key{"x", "y"})
	b := sampleTx("app1", "transfer", []Key{"x"}, []Key{"x", "y"})
	if a.Digest() != b.Digest() {
		t.Fatal("identical transactions must have identical digests")
	}
}

func TestDigestSensitivity(t *testing.T) {
	base := sampleTx("app1", "transfer", []Key{"x"}, []Key{"x", "y"})
	mutations := map[string]func(*Transaction){
		"app":    func(tx *Transaction) { tx.App = "app2" },
		"client": func(tx *Transaction) { tx.Client = "c2" },
		"ts":     func(tx *Transaction) { tx.ClientTS = 8 },
		"method": func(tx *Transaction) { tx.Op.Method = "deposit" },
		"params": func(tx *Transaction) { tx.Op.Params = []string{"a"} },
		"reads":  func(tx *Transaction) { tx.Op.Reads = []Key{"z"} },
		"writes": func(tx *Transaction) { tx.Op.Writes = []Key{"x"} },
		"submit": func(tx *Transaction) { tx.SubmitUnixNano = 1 },
	}
	for name, mutate := range mutations {
		tx := sampleTx("app1", "transfer", []Key{"x"}, []Key{"x", "y"})
		mutate(tx)
		if tx.Digest() == base.Digest() {
			t.Errorf("mutating %s did not change the digest", name)
		}
	}
}

func TestDigestFieldBoundaries(t *testing.T) {
	// Length prefixes must prevent adjacent-field ambiguity: ("ab","c")
	// vs ("a","bc").
	a := &Transaction{App: "ab", Client: "c"}
	b := &Transaction{App: "a", Client: "bc"}
	if a.Digest() == b.Digest() {
		t.Fatal("field boundary ambiguity in digest encoding")
	}
}

func TestNormalizeKeys(t *testing.T) {
	got := NormalizeKeys([]Key{"b", "a", "b", "c", "a"})
	want := []Key{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NormalizeKeys = %v, want %v", got, want)
	}
	if NormalizeKeys(nil) != nil {
		t.Fatal("nil should stay nil")
	}
	single := NormalizeKeys([]Key{"x"})
	if len(single) != 1 || single[0] != "x" {
		t.Fatalf("singleton mishandled: %v", single)
	}
}

func TestTxResultDigestExcludesReason(t *testing.T) {
	// Abort reasons may include node-local details; matching is on the
	// outcome (aborted yes/no + writes), so reasons must not affect the
	// digest... they must not, or matching across executors could fail
	// on formatting differences. Verify current behaviour: reason is
	// excluded.
	a := TxResult{TxID: "t", Index: 1, Aborted: true, AbortReason: "x"}
	b := TxResult{TxID: "t", Index: 1, Aborted: true, AbortReason: "y"}
	if a.Digest() != b.Digest() {
		// Digest includes reason: then deterministic contracts must
		// produce identical reasons; both behaviours are defensible, but
		// the implementation promises exclusion.
		t.Fatal("abort reason must not affect result digest")
	}
	c := TxResult{TxID: "t", Index: 1, Aborted: false}
	if a.Digest() == c.Digest() {
		t.Fatal("aborted flag must affect result digest")
	}
}

func TestTxResultDigestWrites(t *testing.T) {
	a := TxResult{TxID: "t", Writes: []KV{{Key: "k", Val: []byte("1")}}}
	b := TxResult{TxID: "t", Writes: []KV{{Key: "k", Val: []byte("2")}}}
	if a.Digest() == b.Digest() {
		t.Fatal("write values must affect result digest")
	}
}

func TestMerkleRoot(t *testing.T) {
	txns := []*Transaction{
		sampleTx("a", "m1", nil, []Key{"x"}),
		sampleTx("a", "m2", nil, []Key{"y"}),
		sampleTx("a", "m3", nil, []Key{"z"}),
	}
	root3 := TxMerkleRoot(txns)
	if root3.IsZero() {
		t.Fatal("non-empty root should not be zero")
	}
	if TxMerkleRoot(nil) != ZeroHash {
		t.Fatal("empty root should be zero")
	}
	if TxMerkleRoot(txns[:1]) == root3 {
		t.Fatal("prefix must change the root")
	}
	// Order sensitivity.
	swapped := []*Transaction{txns[1], txns[0], txns[2]}
	if TxMerkleRoot(swapped) == root3 {
		t.Fatal("reordering must change the root")
	}
}

func TestBlockHashChainsHeaderFields(t *testing.T) {
	txns := []*Transaction{sampleTx("a", "m", nil, []Key{"x"})}
	b1 := NewBlock(1, ZeroHash, txns)
	if !b1.VerifyTxRoot() {
		t.Fatal("fresh block must verify its root")
	}
	b2 := NewBlock(2, b1.Hash(), txns)
	if b2.Header.PrevHash != b1.Hash() {
		t.Fatal("prev hash not linked")
	}
	if b1.Hash() == b2.Hash() {
		t.Fatal("different headers must hash differently")
	}
	// Tampering with the body must break root verification.
	b1.Txns = append(b1.Txns, sampleTx("a", "m2", nil, []Key{"y"}))
	if b1.VerifyTxRoot() {
		t.Fatal("tampered block must fail root verification")
	}
}

func TestBlockApps(t *testing.T) {
	b := NewBlock(0, ZeroHash, []*Transaction{
		sampleTx("app2", "m", nil, nil),
		sampleTx("app1", "m", nil, nil),
		sampleTx("app2", "m", nil, nil),
	})
	got := b.Apps()
	want := []AppID{"app2", "app1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Apps = %v, want %v", got, want)
	}
}

func TestTransactionCodecRoundTrip(t *testing.T) {
	tx := sampleTx("app1", "transfer", []Key{"r1", "r2"}, []Key{"w1"})
	tx.ID = "tx-1"
	tx.Sig = []byte{1, 2, 3}
	decoded, err := UnmarshalTransaction(tx.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	// Decoding seals; sealing the input too makes DeepEqual also pin that
	// the receiver's cached digest equals the sender's.
	tx.Seal()
	if !reflect.DeepEqual(tx, decoded) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", tx, decoded)
	}
}

// TestDecodeTransactionAllocs pins the decoder's allocation budget: the
// Transaction, one string arena, one list backing shared by Params,
// Reads and Writes, and the signature — however many strings it holds.
func TestDecodeTransactionAllocs(t *testing.T) {
	tx := sampleTx("app1", "transfer", []Key{"r1", "r2", "r3"}, []Key{"w1", "w2"})
	tx.ID = "tx-1"
	tx.Sig = []byte{1, 2, 3}
	raw := tx.Marshal()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := UnmarshalTransaction(raw); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Fatalf("decoding a signed transaction allocates %v times, want at most 4", n)
	}
}

func TestTransactionCodecRejectsTruncation(t *testing.T) {
	tx := sampleTx("app1", "transfer", []Key{"r"}, []Key{"w"})
	raw := tx.Marshal()
	for _, cut := range []int{0, 1, len(raw) / 2, len(raw) - 1} {
		if _, err := UnmarshalTransaction(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestQuickCodecRoundTrip fuzzes the transaction codec with random field
// values via testing/quick.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(app, client, method string, params []string, ts uint64, sig []byte) bool {
		// The codec does not distinguish nil from empty slices; use the
		// canonical (nil) form for empties.
		if len(params) == 0 {
			params = nil
		}
		if len(sig) == 0 {
			sig = nil
		}
		tx := &Transaction{
			ID:       TxID(method),
			App:      AppID(app),
			Client:   NodeID(client),
			ClientTS: ts,
			Op:       Operation{Method: method, Params: params},
			Sig:      sig,
		}
		out, err := UnmarshalTransaction(tx.Marshal())
		if err != nil {
			return false
		}
		tx.Seal()
		return reflect.DeepEqual(tx, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestByteReaderErrorsSticky(t *testing.T) {
	r := NewByteReader([]byte{0, 0})
	_ = r.U64() // truncated
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Subsequent reads must not panic and must keep the error.
	_ = r.Str()
	_ = r.Blob()
	_ = r.Byte()
	if r.Err() == nil {
		t.Fatal("error must be sticky")
	}
}

func TestNewBlockMsgDigestBindsGraph(t *testing.T) {
	txns := []*Transaction{
		sampleTx("a", "m", []Key{"x"}, []Key{"x"}),
		sampleTx("a", "m", []Key{"x"}, []Key{"x"}),
	}
	block := NewBlock(0, ZeroHash, txns)
	m1 := &NewBlockMsg{Block: block, Orderer: "o1"}
	m2 := &NewBlockMsg{Block: block, Orderer: "o1"}
	if m1.Digest() != m2.Digest() {
		t.Fatal("same content must match")
	}
	// A graph with different edges must change the digest.
	m2.Graph = blockGraph(2, [][2]int{{0, 1}})
	if m1.Digest() == m2.Digest() {
		t.Fatal("graph shape must affect NEWBLOCK digest")
	}
}

func TestCommitMsgDigest(t *testing.T) {
	a := &CommitMsg{BlockNum: 1, Executor: "e1",
		Results: []TxResult{{TxID: "t1", Writes: []KV{{Key: "k", Val: []byte("v")}}}}}
	b := &CommitMsg{BlockNum: 1, Executor: "e1",
		Results: []TxResult{{TxID: "t1", Writes: []KV{{Key: "k", Val: []byte("w")}}}}}
	if a.Digest() == b.Digest() {
		t.Fatal("result content must affect COMMIT digest")
	}
	c := &CommitMsg{BlockNum: 1, Executor: "e2", Results: a.Results}
	if a.Digest() == c.Digest() {
		t.Fatal("executor identity must affect COMMIT digest")
	}
}

func TestApproxSizesArePositive(t *testing.T) {
	tx := sampleTx("app1", "transfer", []Key{"r"}, []Key{"w"})
	if tx.ApproxSize() <= 0 {
		t.Fatal("transaction size must be positive")
	}
	block := NewBlock(0, ZeroHash, []*Transaction{tx})
	if block.ApproxSize() <= tx.ApproxSize() {
		t.Fatal("block size must exceed its transactions")
	}
	nb := &NewBlockMsg{Block: block, Graph: blockGraph(1, nil)}
	if nb.ApproxSize() < block.ApproxSize() {
		t.Fatal("NEWBLOCK must be at least the block size")
	}
	cm := &CommitMsg{Results: []TxResult{{TxID: "t"}}}
	if cm.ApproxSize() <= 0 {
		t.Fatal("COMMIT size must be positive")
	}
	req := &StateSyncRequestMsg{Requester: "e1"}
	if req.ApproxSize() <= 0 {
		t.Fatal("STATE-SYNC-REQUEST size must be positive")
	}
	resp := &StateSyncResponseMsg{Records: [][]byte{{1, 2, 3}}, Responder: "e1"}
	if resp.ApproxSize() <= len(resp.Records[0]) {
		t.Fatal("STATE-SYNC-RESPONSE size must exceed its records")
	}
}
