package types

import (
	"fmt"

	"parblockchain/internal/depgraph"
)

// This file extends the binary codec to the protocol messages (REQUEST,
// NEWBLOCK, COMMIT, COMMIT-NOTIFY) and their constituents, so
// deployments can frame them without gob's per-stream type headers and
// so the decoders can be fuzzed: malformed input must return
// ErrCodec-wrapped errors, never panic, and never allocate
// proportionally to an attacker-chosen count that exceeds the input
// size.
//
// Every count-prefixed slice is therefore bounded by Remaining()/minSize
// before allocation, where minSize is the smallest possible encoding of
// one element; a count that could not possibly be backed by the input
// fails immediately instead of reserving capacity for it.

// Minimum encoded sizes, used to bound slice pre-allocation on decode.
const (
	minKVSize     = 8 + 1             // key length prefix + presence byte
	minResultSize = 8 + 8 + 1 + 8 + 8 // TxID, Index, abort flag, reason, write count
	minTxSize     = 9*8 + 8           // nine length/fixed words + sig prefix
)

// Raw appends n fixed-width bytes with no length prefix (hashes).
func (w *ByteWriter) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Raw reads n fixed-width bytes, shared with the input buffer.
func (r *ByteReader) Raw(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

func (w *ByteWriter) hash(h Hash) { w.Raw(h[:]) }

func (r *ByteReader) hash() Hash {
	var h Hash
	copy(h[:], r.Raw(len(h)))
	return h
}

// WriteHash appends a fixed-width hash (no length prefix). Enclosing
// encodings (the durability subsystem's WAL records and snapshot
// manifests) embed hashes with it.
func (w *ByteWriter) WriteHash(h Hash) { w.hash(h) }

// ReadHash reads a fixed-width hash written by WriteHash.
func (r *ByteReader) ReadHash() Hash { return r.hash() }

// DecodeBlock consumes one block encoding (written by Block.MarshalTo)
// from the reader, so enclosing decoders — NEWBLOCK above, the WAL
// record codec in internal/persist — can embed blocks. Malformed input
// sets the reader's error; allocation is bounded by the input size.
func DecodeBlock(r *ByteReader) *Block { return decodeBlock(r) }

// DecodeTxResults consumes a count-prefixed result list (one TxResult
// MarshalTo per element after a U64 count), with the count bounded by
// the remaining input before allocation.
func DecodeTxResults(r *ByteReader) []TxResult { return decodeTxResults(r) }

// MarshalTo appends the result's encoding. A nil write value (deletion)
// and an empty value are distinct on the wire: stores treat nil as a
// delete, so conflating them would turn empty writes into deletions.
func (res *TxResult) MarshalTo(w *ByteWriter) {
	w.Str(string(res.TxID))
	w.I64(int64(res.Index))
	w.Bool(res.Aborted)
	w.Str(res.AbortReason)
	w.U64(uint64(len(res.Writes)))
	for _, kv := range res.Writes {
		w.Str(kv.Key)
		if kv.Val == nil {
			w.Byte(0)
		} else {
			w.Byte(1)
			w.Blob(kv.Val)
		}
	}
}

func decodeTxResult(r *ByteReader) TxResult {
	res := TxResult{
		TxID:  TxID(r.Str()),
		Index: int(r.I64()),
	}
	res.Aborted = r.Bool()
	res.AbortReason = r.Str()
	n := r.U64()
	if r.err != nil || n > uint64(r.Remaining())/minKVSize {
		r.fail()
		return res
	}
	if n > 0 {
		res.Writes = make([]KV, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			kv := KV{Key: r.Str()}
			if r.Bool() {
				kv.Val = r.Blob()
				if kv.Val == nil {
					kv.Val = []byte{} // present but empty: not a deletion
				}
			}
			res.Writes = append(res.Writes, kv)
		}
	}
	return res
}

func decodeTxResults(r *ByteReader) []TxResult {
	n := r.U64()
	if r.err != nil || n > uint64(r.Remaining())/minResultSize {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]TxResult, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, decodeTxResult(r))
	}
	return out
}

// MarshalTo appends the block's encoding: the header followed by the
// transaction list.
func (b *Block) MarshalTo(w *ByteWriter) {
	w.U64(b.Header.Number)
	w.hash(b.Header.PrevHash)
	w.hash(b.Header.TxRoot)
	w.U64(uint64(b.Header.Count))
	w.U64(uint64(len(b.Txns)))
	for _, tx := range b.Txns {
		tx.MarshalTo(w)
	}
}

func decodeBlock(r *ByteReader) *Block {
	b := &Block{}
	b.Header.Number = r.U64()
	b.Header.PrevHash = r.hash()
	b.Header.TxRoot = r.hash()
	b.Header.Count = int(r.U64())
	n := r.U64()
	if r.err != nil || n > uint64(r.Remaining())/minTxSize {
		r.fail()
		return b
	}
	if n > 0 {
		b.Txns = make([]*Transaction, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			b.Txns = append(b.Txns, decodeTransaction(r))
		}
	}
	return b
}

// marshalGraph encodes a dependency graph as its successor adjacency
// (the predecessor lists are the mirror and are rebuilt on decode).
func marshalGraph(w *ByteWriter, g *depgraph.Graph) {
	if g == nil {
		w.Byte(0)
		return
	}
	w.Byte(1)
	w.U64(uint64(g.N))
	for _, succ := range g.Succ {
		w.U64(uint64(len(succ)))
		for _, j := range succ {
			w.U64(uint64(j))
		}
	}
}

func decodeGraph(r *ByteReader) *depgraph.Graph {
	if !r.Bool() {
		return nil
	}
	n := r.U64()
	// Every node costs at least one count word, so n can't exceed the
	// remaining input; this bounds the adjacency allocation.
	if r.err != nil || n > uint64(r.Remaining())/8 {
		r.fail()
		return nil
	}
	g := &depgraph.Graph{
		N:    int(n),
		Succ: make([][]int32, n),
		Pred: make([][]int32, n),
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		cnt := r.U64()
		if r.err != nil || cnt > uint64(r.Remaining())/8 {
			r.fail()
			return nil
		}
		if cnt == 0 {
			continue
		}
		succ := make([]int32, 0, cnt)
		for k := uint64(0); k < cnt && r.err == nil; k++ {
			j := r.U64()
			if j >= n {
				r.fail()
				return nil
			}
			succ = append(succ, int32(j))
			g.Pred[j] = append(g.Pred[j], int32(i))
		}
		g.Succ[i] = succ
	}
	if r.err != nil {
		return nil
	}
	if err := g.Validate(); err != nil {
		r.err = fmt.Errorf("%w: %v", ErrCodec, err)
		return nil
	}
	return g
}

// Marshal encodes the NEWBLOCK message, including its signature.
func (m *NewBlockMsg) Marshal() []byte {
	w := AcquireWriter()
	defer ReleaseWriter(w)
	m.Block.MarshalTo(w)
	marshalGraph(w, m.Graph)
	apps := make([]string, len(m.Apps))
	for i, a := range m.Apps {
		apps[i] = string(a)
	}
	w.Strs(apps)
	w.Str(string(m.Orderer))
	w.Blob(m.Sig)
	return w.CloneBytes()
}

// UnmarshalNewBlockMsg decodes a NEWBLOCK message encoded by Marshal.
// The embedded graph is structurally validated (edge direction, ranges,
// Succ/Pred mirroring); malformed input returns an error, never panics.
func UnmarshalNewBlockMsg(b []byte) (*NewBlockMsg, error) {
	r := NewByteReader(b)
	m := &NewBlockMsg{Block: decodeBlock(r)}
	m.Graph = decodeGraph(r)
	for _, a := range r.Strs() {
		m.Apps = append(m.Apps, AppID(a))
	}
	m.Orderer = NodeID(r.Str())
	m.Sig = r.Blob()
	if err := FinishDecode(r, "NEWBLOCK"); err != nil {
		return nil, err
	}
	return m, nil
}

// Marshal encodes the REQUEST message (a thin envelope over one
// transaction), including the transaction's client signature.
func (m *RequestMsg) Marshal() []byte {
	w := AcquireWriter()
	defer ReleaseWriter(w)
	if m.Tx == nil {
		w.Byte(0)
	} else {
		w.Byte(1)
		m.Tx.MarshalTo(w)
	}
	return w.CloneBytes()
}

// UnmarshalRequestMsg decodes a REQUEST message encoded by Marshal.
func UnmarshalRequestMsg(b []byte) (*RequestMsg, error) {
	r := NewByteReader(b)
	m := &RequestMsg{}
	if r.Bool() {
		m.Tx = decodeTransaction(r)
	}
	if err := FinishDecode(r, "REQUEST"); err != nil {
		return nil, err
	}
	return m, nil
}

// Marshal encodes the COMMIT message, including its signature.
func (m *CommitMsg) Marshal() []byte {
	w := AcquireWriter()
	defer ReleaseWriter(w)
	w.U64(m.BlockNum)
	w.U64(uint64(len(m.Results)))
	for i := range m.Results {
		m.Results[i].MarshalTo(w)
	}
	w.Str(string(m.Executor))
	w.Blob(m.Sig)
	return w.CloneBytes()
}

// UnmarshalCommitMsg decodes a COMMIT message encoded by Marshal.
// Malformed input returns an error, never panics.
func UnmarshalCommitMsg(b []byte) (*CommitMsg, error) {
	r := NewByteReader(b)
	m := &CommitMsg{BlockNum: r.U64()}
	m.Results = decodeTxResults(r)
	m.Executor = NodeID(r.Str())
	m.Sig = r.Blob()
	if err := FinishDecode(r, "COMMIT"); err != nil {
		return nil, err
	}
	return m, nil
}

// Marshal encodes the commit notification: TxID, BlockNum, Aborted and
// AbortReason, in that order.
func (m *CommitNotifyMsg) Marshal() []byte {
	w := AcquireWriter()
	defer ReleaseWriter(w)
	w.Str(string(m.TxID))
	w.U64(m.BlockNum)
	w.Bool(m.Aborted)
	w.Str(m.AbortReason)
	return w.CloneBytes()
}

// UnmarshalCommitNotifyMsg decodes a commit notification encoded by
// Marshal. Every read is bounded by the input, and trailing bytes are
// refused.
func UnmarshalCommitNotifyMsg(b []byte) (*CommitNotifyMsg, error) {
	r := NewByteReader(b)
	m := &CommitNotifyMsg{TxID: TxID(r.Str()), BlockNum: r.U64(), Aborted: r.Bool()}
	m.AbortReason = r.Str()
	if err := FinishDecode(r, "COMMIT-NOTIFY"); err != nil {
		return nil, err
	}
	return m, nil
}
