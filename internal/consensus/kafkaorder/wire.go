package kafkaorder

import (
	"parblockchain/internal/types"
)

// Hand-rolled binary codecs for the kafkaorder protocol messages, which
// TCP deployments frame directly. Same contract as the internal/types codecs: malformed
// input errors instead of panicking, and attacker-chosen counts are
// bounded by the input size before allocation.

// minBatchEntryLen bounds batch-count pre-allocation on decode: one
// length-prefixed payload per entry.
const minBatchEntryLen = 8

// Marshal encodes a Forward frame.
func (m Forward) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.Blob(m.Payload)
	return w.CloneBytes()
}

// UnmarshalForward decodes a Forward frame.
func UnmarshalForward(b []byte) (Forward, error) {
	r := types.NewByteReader(b)
	m := Forward{Payload: r.Blob()}
	return m, types.FinishDecode(r, "kafka FORWARD")
}

// Marshal encodes an Append frame.
func (m Append) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(m.Seq)
	w.U64(uint64(len(m.Batch)))
	for _, p := range m.Batch {
		w.Blob(p)
	}
	return w.CloneBytes()
}

// UnmarshalAppend decodes an Append frame.
func UnmarshalAppend(b []byte) (Append, error) {
	r := types.NewByteReader(b)
	m := Append{Seq: r.U64()}
	n := r.U64()
	if r.Err() == nil && n > uint64(r.Remaining())/minBatchEntryLen {
		r.Fail()
	}
	if n > 0 && r.Err() == nil {
		m.Batch = make([][]byte, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			m.Batch = append(m.Batch, r.Blob())
		}
	}
	return m, types.FinishDecode(r, "kafka APPEND")
}

// Marshal encodes an Ack frame.
func (m Ack) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(m.Seq)
	return w.CloneBytes()
}

// UnmarshalAck decodes an Ack frame.
func UnmarshalAck(b []byte) (Ack, error) {
	r := types.NewByteReader(b)
	m := Ack{Seq: r.U64()}
	return m, types.FinishDecode(r, "kafka ACK")
}

// Marshal encodes a CommitAnn frame.
func (m CommitAnn) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(m.Seq)
	return w.CloneBytes()
}

// UnmarshalCommitAnn decodes a CommitAnn frame.
func UnmarshalCommitAnn(b []byte) (CommitAnn, error) {
	r := types.NewByteReader(b)
	m := CommitAnn{Seq: r.U64()}
	return m, types.FinishDecode(r, "kafka COMMITANN")
}

// Marshal encodes a Fetch frame.
func (m Fetch) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(m.Have)
	return w.CloneBytes()
}

// UnmarshalFetch decodes a Fetch frame.
func UnmarshalFetch(b []byte) (Fetch, error) {
	r := types.NewByteReader(b)
	m := Fetch{Have: r.U64()}
	return m, types.FinishDecode(r, "kafka FETCH")
}
