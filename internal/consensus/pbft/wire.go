package pbft

import (
	"parblockchain/internal/types"
)

// Hand-rolled binary codecs for the PBFT protocol messages, which TCP
// deployments frame directly. Same contract as the internal/types codecs: malformed
// input errors instead of panicking, and attacker-chosen counts are
// bounded by the input size before allocation. The nested certificate
// structures (ViewChange carrying PreparedCerts, NewView carrying
// PrePrepares) encode recursively with the same bounds at every level.

// Minimum encoded sizes, used to bound count pre-allocation on decode.
const (
	// minBatchEntryLen: one length-prefixed payload per batch entry.
	minBatchEntryLen = 8
	// minPrePrepareLen: view + seq + digest + batch count.
	minPrePrepareLen = 8 + 8 + 32 + 8
	// minPreparedCertLen: seq + view + digest + batch count.
	minPreparedCertLen = 8 + 8 + 32 + 8
)

// writeBatch appends a count-prefixed list of payloads.
func writeBatch(w *types.ByteWriter, batch [][]byte) {
	w.U64(uint64(len(batch)))
	for _, p := range batch {
		w.Blob(p)
	}
}

// readBatch reads a batch written by writeBatch, bounding the count by
// the remaining input before allocating.
func readBatch(r *types.ByteReader) [][]byte {
	n := r.U64()
	if r.Err() == nil && n > uint64(r.Remaining())/minBatchEntryLen {
		r.Fail()
	}
	if n == 0 || r.Err() != nil {
		return nil
	}
	batch := make([][]byte, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		batch = append(batch, r.Blob())
	}
	return batch
}

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
	return m, types.FinishDecode(r, "pbft FORWARD")
}

// marshalPrePrepareInto encodes a PrePrepare body without framing, so
// NewView can nest it.
func marshalPrePrepareInto(w *types.ByteWriter, m PrePrepare) {
	w.U64(m.View)
	w.U64(m.Seq)
	w.WriteHash(m.Digest)
	writeBatch(w, m.Batch)
}

// readPrePrepare decodes a PrePrepare body written by
// marshalPrePrepareInto.
func readPrePrepare(r *types.ByteReader) PrePrepare {
	m := PrePrepare{View: r.U64(), Seq: r.U64(), Digest: r.ReadHash()}
	m.Batch = readBatch(r)
	return m
}

// Marshal encodes a PrePrepare frame.
func (m PrePrepare) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	marshalPrePrepareInto(w, m)
	return w.CloneBytes()
}

// UnmarshalPrePrepare decodes a PrePrepare frame.
func UnmarshalPrePrepare(b []byte) (PrePrepare, error) {
	r := types.NewByteReader(b)
	m := readPrePrepare(r)
	return m, types.FinishDecode(r, "pbft PREPREPARE")
}

// Marshal encodes a Prepare frame.
func (m Prepare) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(m.View)
	w.U64(m.Seq)
	w.WriteHash(m.Digest)
	return w.CloneBytes()
}

// UnmarshalPrepare decodes a Prepare frame.
func UnmarshalPrepare(b []byte) (Prepare, error) {
	r := types.NewByteReader(b)
	m := Prepare{View: r.U64(), Seq: r.U64(), Digest: r.ReadHash()}
	return m, types.FinishDecode(r, "pbft PREPARE")
}

// Marshal encodes a Commit frame.
func (m Commit) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(m.View)
	w.U64(m.Seq)
	w.WriteHash(m.Digest)
	return w.CloneBytes()
}

// UnmarshalCommit decodes a Commit frame.
func UnmarshalCommit(b []byte) (Commit, error) {
	r := types.NewByteReader(b)
	m := Commit{View: r.U64(), Seq: r.U64(), Digest: r.ReadHash()}
	return m, types.FinishDecode(r, "pbft COMMIT")
}

// Marshal encodes a ViewChange frame.
func (m ViewChange) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(m.NewView)
	w.U64(m.LastDelivered)
	w.U64(uint64(len(m.Prepared)))
	for _, c := range m.Prepared {
		w.U64(c.Seq)
		w.U64(c.View)
		w.WriteHash(c.Digest)
		writeBatch(w, c.Batch)
	}
	return w.CloneBytes()
}

// UnmarshalViewChange decodes a ViewChange frame.
func UnmarshalViewChange(b []byte) (ViewChange, error) {
	r := types.NewByteReader(b)
	m := ViewChange{NewView: r.U64(), LastDelivered: r.U64()}
	n := r.U64()
	if r.Err() == nil && n > uint64(r.Remaining())/minPreparedCertLen {
		r.Fail()
	}
	if n > 0 && r.Err() == nil {
		m.Prepared = make([]PreparedCert, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			c := PreparedCert{Seq: r.U64(), View: r.U64(), Digest: r.ReadHash()}
			c.Batch = readBatch(r)
			m.Prepared = append(m.Prepared, c)
		}
	}
	return m, types.FinishDecode(r, "pbft VIEWCHANGE")
}

// Marshal encodes a NewView frame.
func (m NewView) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(m.View)
	w.U64(m.LastDelivered)
	w.U64(uint64(len(m.PrePrepares)))
	for _, pre := range m.PrePrepares {
		marshalPrePrepareInto(w, pre)
	}
	return w.CloneBytes()
}

// UnmarshalNewView decodes a NewView frame.
func UnmarshalNewView(b []byte) (NewView, error) {
	r := types.NewByteReader(b)
	m := NewView{View: r.U64(), LastDelivered: r.U64()}
	n := r.U64()
	if r.Err() == nil && n > uint64(r.Remaining())/minPrePrepareLen {
		r.Fail()
	}
	if n > 0 && r.Err() == nil {
		m.PrePrepares = make([]PrePrepare, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			m.PrePrepares = append(m.PrePrepares, readPrePrepare(r))
		}
	}
	return m, types.FinishDecode(r, "pbft NEWVIEW")
}
