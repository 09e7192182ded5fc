package raft

import (
	"parblockchain/internal/types"
)

// Hand-rolled binary codecs for the Raft protocol messages, which TCP
// deployments frame directly: no reflection or per-stream type headers
// on every heartbeat. The codecs follow the internal/types fuzz contract:
// malformed input errors instead of panicking, attacker-chosen counts are
// bounded by the input size before allocation, and nil-vs-empty payload
// distinctions that carry protocol meaning (a nil LogEntry payload is a
// leader no-op) survive the wire.

// minLogEntryLen bounds entry-count pre-allocation on decode: term plus
// presence byte.
const minLogEntryLen = 8 + 1

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
	return m, types.FinishDecode(r, "raft FORWARD")
}

// Marshal encodes a RequestVote frame.
func (m RequestVote) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(m.Term)
	w.U64(m.LastLogIndex)
	w.U64(m.LastLogTerm)
	return w.CloneBytes()
}

// UnmarshalRequestVote decodes a RequestVote frame.
func UnmarshalRequestVote(b []byte) (RequestVote, error) {
	r := types.NewByteReader(b)
	m := RequestVote{Term: r.U64(), LastLogIndex: r.U64(), LastLogTerm: r.U64()}
	return m, types.FinishDecode(r, "raft REQUESTVOTE")
}

// Marshal encodes a VoteResp frame.
func (m VoteResp) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(m.Term)
	w.Bool(m.Granted)
	return w.CloneBytes()
}

// UnmarshalVoteResp decodes a VoteResp frame.
func UnmarshalVoteResp(b []byte) (VoteResp, error) {
	r := types.NewByteReader(b)
	m := VoteResp{Term: r.U64(), Granted: r.Bool()}
	return m, types.FinishDecode(r, "raft VOTERESP")
}

// Marshal encodes an AppendEntries frame.
func (m AppendEntries) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(m.Term)
	w.U64(m.PrevIndex)
	w.U64(m.PrevTerm)
	w.U64(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		w.U64(e.Term)
		if e.Payload == nil {
			w.Byte(0) // leader no-op: nil is protocol-meaningful
		} else {
			w.Byte(1)
			w.Blob(e.Payload)
		}
	}
	w.U64(m.LeaderCommit)
	return w.CloneBytes()
}

// UnmarshalAppendEntries decodes an AppendEntries frame.
func UnmarshalAppendEntries(b []byte) (AppendEntries, error) {
	r := types.NewByteReader(b)
	m := AppendEntries{Term: r.U64(), PrevIndex: r.U64(), PrevTerm: r.U64()}
	n := r.U64()
	if r.Err() == nil && n > uint64(r.Remaining())/minLogEntryLen {
		r.Fail()
	}
	if n > 0 && r.Err() == nil {
		m.Entries = make([]LogEntry, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			e := LogEntry{Term: r.U64()}
			// Bool fails on presence bytes other than 0/1: a flipped byte
			// must not silently turn a data entry into a leader no-op.
			if r.Bool() {
				e.Payload = r.Blob()
				if e.Payload == nil {
					e.Payload = []byte{} // present but empty: not a no-op
				}
			}
			m.Entries = append(m.Entries, e)
		}
	}
	m.LeaderCommit = r.U64()
	return m, types.FinishDecode(r, "raft APPENDENTRIES")
}

// Marshal encodes an AppendResp frame.
func (m AppendResp) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(m.Term)
	w.Bool(m.Success)
	w.U64(m.MatchIndex)
	return w.CloneBytes()
}

// UnmarshalAppendResp decodes an AppendResp frame.
func UnmarshalAppendResp(b []byte) (AppendResp, error) {
	r := types.NewByteReader(b)
	m := AppendResp{Term: r.U64(), Success: r.Bool(), MatchIndex: r.U64()}
	return m, types.FinishDecode(r, "raft APPENDRESP")
}
