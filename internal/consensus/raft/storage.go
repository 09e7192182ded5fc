package raft

import (
	"fmt"
	"os"
	"path/filepath"

	"parblockchain/internal/persist"
	"parblockchain/internal/types"
)

// Durable Raft state, persisted through the same segmented log as the
// executor WAL (persist.RecordLog). Two artifacts live under the
// member's data directory:
//
//   - raft-<16 hex>.seg segment files: the replicated log, one record
//     per entry, record index = Raft index - 1. Entries are appended
//     and fsynced before the member acts on them — a leader replicates
//     only durable entries, a follower acknowledges only durable
//     entries — so a majority's fsynced disks always cover the
//     committed prefix, and a full-cluster restart loses nothing.
//   - hardstate: the (term, votedFor) pair, rewritten atomically
//     (persist.WriteFileAtomic) before any message that commits the
//     member to it leaves the node. Forgetting a vote across a restart
//     could elect two leaders in one term.
//
// The log is truncated through RecordLog.TruncateFrom on conflict
// repair, mirroring the in-memory suffix truncation. Nothing is pruned:
// the in-memory protocol keeps its full log too, so disk mirrors memory
// exactly and a restarted member recovers the entire log.

const hardstateName = "hardstate"

var hardstateMagic = [8]byte{'P', 'B', 'R', 'F', 'T', 'H', 'S', '1'}

// storage is a Raft member's durable state. It is owned by the run
// goroutine (after New) like the rest of the member's state.
type storage struct {
	dir      string
	log      *persist.RecordLog
	term     uint64 // last saved hard state
	votedFor types.NodeID
	logf     func(format string, args ...any)
}

func encodeRaftEntry(e *LogEntry) []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(e.Term)
	w.Bool(e.Payload != nil)
	if e.Payload != nil {
		w.Blob(e.Payload)
	}
	return w.CloneBytes()
}

func decodeRaftEntry(body []byte) (LogEntry, error) {
	r := types.NewByteReader(body)
	e := LogEntry{Term: r.U64()}
	if r.Bool() {
		e.Payload = r.Blob()
	}
	return e, types.FinishDecode(r, "raft log entry")
}

// openStorage opens (creating if needed) the member's data directory,
// replays the durable log, and loads the hard state.
func openStorage(dir string, logf func(format string, args ...any)) (*storage, []LogEntry, error) {
	s := &storage{dir: dir, logf: logf}
	var entries []LogEntry
	rl, err := persist.OpenRecordLog(persist.RecordLogConfig{
		Dir:    dir,
		Prefix: "raft",
		Logf:   logf,
	}, func(_ uint64, body []byte) error {
		e, err := decodeRaftEntry(body)
		if err != nil {
			return err
		}
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	s.log = rl
	if err := s.loadHardState(); err != nil {
		rl.Close()
		return nil, nil, err
	}
	return s, entries, nil
}

func (s *storage) loadHardState() error {
	data, err := os.ReadFile(filepath.Join(s.dir, hardstateName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("raft: %w", err)
	}
	r := types.NewByteReader(data)
	var magic [8]byte
	for i := range magic {
		magic[i] = r.Byte()
	}
	if r.Err() == nil && magic != hardstateMagic {
		return fmt.Errorf("raft: hardstate file has bad magic")
	}
	term := r.U64()
	voted := types.NodeID(r.Str())
	if err := types.FinishDecode(r, "raft hardstate"); err != nil {
		return err
	}
	s.term = term
	s.votedFor = voted
	return nil
}

// saveHardState durably records (term, votedFor) when it changed; the
// atomic replace leaves the previous state intact on a crash mid-write.
func (s *storage) saveHardState(term uint64, votedFor types.NodeID) {
	if s == nil || (term == s.term && votedFor == s.votedFor) {
		return
	}
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.Raw(hardstateMagic[:])
	w.U64(term)
	w.Str(string(votedFor))
	err := persist.WriteFileAtomic(filepath.Join(s.dir, hardstateName), func(f *os.File) error {
		_, err := f.Write(w.Bytes())
		return err
	})
	if err != nil {
		s.logf("raft: persisting hardstate: %v", err)
		return
	}
	s.term = term
	s.votedFor = votedFor
}

// appendFrom appends every in-memory entry storage is missing and
// fsyncs, rolling to a fresh segment when the active one is full. Must
// run before the entries are replicated or acknowledged.
func (s *storage) appendFrom(log []LogEntry) error {
	if uint64(len(log)) < s.log.NextIndex() {
		return fmt.Errorf("raft: storage ahead of memory (%d > %d)", s.log.NextIndex(), len(log))
	}
	for idx := s.log.NextIndex(); idx < uint64(len(log)); idx++ {
		if s.log.Full() {
			if err := s.log.Roll(); err != nil {
				return err
			}
		}
		if _, err := s.log.Append(encodeRaftEntry(&log[idx])); err != nil {
			return err
		}
	}
	return s.log.Sync()
}

// truncate discards durable records from record index idx (= Raft index
// idx+1) on conflict repair.
func (s *storage) truncate(idx uint64) error {
	return s.log.TruncateFrom(idx)
}

// close releases the storage: a clean close syncs, a crash drops
// unsynced bytes like a power loss would.
func (s *storage) close(crash bool) {
	if s == nil {
		return
	}
	var err error
	if crash {
		err = s.log.Crash()
	} else {
		err = s.log.Close()
	}
	if err != nil {
		s.logf("raft: closing storage: %v", err)
	}
}
