package kafkaorder

import (
	"fmt"

	"parblockchain/internal/persist"
	"parblockchain/internal/types"
)

// Durable broker state, persisted through the same segmented log as
// the executor WAL (persist.RecordLog, prefix "kafka"). The log interleaves
// two record kinds:
//
//   - batch records [0x01][seq][count][payload...]: a sequenced batch,
//     fsynced before the leader replicates it or a broker acknowledges
//     it — an Ack means "this batch survives my crash", which is what
//     lets the quorum rule tolerate f member crashes.
//   - commit records [0x02][seq]: the batch reached its ack quorum,
//     fsynced before the commit is announced or acted on.
//
// The log group-commits: a member appends the records of a whole
// mailbox drain without syncing, syncs once at the drain's end, and
// only then sends the drain's messages and delivers its entries. Every
// action a record gates therefore still follows the record's fsync.
//
// Recovery rebuilds the slot table from the log and redelivers the
// committed prefix with stable sequence numbers (the consumer dedupes
// via its own high-water mark). Nothing is pruned — the in-memory
// protocol has no snapshotting either — so the log doubles as the
// catch-up source: the leader serves Fetch requests by ranging over it,
// re-sending Append and CommitAnn for everything a rejoining broker
// missed.

const (
	recBatch  = 0x01
	recCommit = 0x02
)

type storage struct {
	log  *persist.RecordLog
	logf func(format string, args ...any)
}

func encodeBatchRecord(seq uint64, batch [][]byte) []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.Byte(recBatch)
	w.U64(seq)
	w.U64(uint64(len(batch)))
	for _, p := range batch {
		w.Blob(p)
	}
	return w.CloneBytes()
}

func encodeCommitRecord(seq uint64) []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.Byte(recCommit)
	w.U64(seq)
	return w.CloneBytes()
}

// decodeStorageRecord decodes one log record: kind, sequence, and (for
// batch records) the payload batch.
func decodeStorageRecord(body []byte) (kind byte, seq uint64, batch [][]byte, err error) {
	r := types.NewByteReader(body)
	kind = r.Byte()
	seq = r.U64()
	switch kind {
	case recBatch:
		n := r.U64()
		if r.Err() == nil && n > uint64(r.Remaining())/minBatchEntryLen {
			r.Fail()
		}
		if n > 0 && r.Err() == nil {
			batch = make([][]byte, 0, n)
			for i := uint64(0); i < n && r.Err() == nil; i++ {
				batch = append(batch, r.Blob())
			}
		}
	case recCommit:
	default:
		return 0, 0, nil, fmt.Errorf("kafkaorder: unknown log record kind %d", kind)
	}
	return kind, seq, batch, types.FinishDecode(r, "kafka log record")
}

// openStorage opens the member's log and rebuilds the slot table. It
// returns the recovered slots (batches and commit flags; ack state is
// not durable and restarts empty) and the highest sequence seen.
func openStorage(dir string, logf func(format string, args ...any)) (*storage, map[uint64]*slot, uint64, error) {
	s := &storage{logf: logf}
	slots := make(map[uint64]*slot)
	var maxSeq uint64
	get := func(seq uint64) *slot {
		sl, ok := slots[seq]
		if !ok {
			sl = &slot{acks: make(map[types.NodeID]bool)}
			slots[seq] = sl
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		return sl
	}
	rl, err := persist.OpenRecordLog(persist.RecordLogConfig{
		Dir:    dir,
		Prefix: "kafka",
		Logf:   logf,
	}, func(_ uint64, body []byte) error {
		kind, seq, batch, err := decodeStorageRecord(body)
		if err != nil {
			return err
		}
		sl := get(seq)
		switch kind {
		case recBatch:
			sl.batch = batch
		case recCommit:
			sl.committed = true
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	s.log = rl
	return s, slots, maxSeq, nil
}

// append writes one record, rolling segments as they fill. The record
// is durable only after the next sync.
func (s *storage) append(body []byte) {
	if s.log.Full() {
		if err := s.log.Roll(); err != nil {
			s.logf("kafkaorder: rolling log: %v", err)
		}
	}
	if _, err := s.log.Append(body); err != nil {
		s.logf("kafkaorder: appending log record: %v", err)
	}
}

// sync makes every appended record durable; a no-op on a nil storage
// and when nothing was appended since the last sync.
func (s *storage) sync() {
	if s == nil {
		return
	}
	if err := s.log.Sync(); err != nil {
		s.logf("kafkaorder: syncing log: %v", err)
	}
}

// rangeAll streams every durable record through fn in log order — the
// leader's Fetch-serving path.
func (s *storage) rangeAll(fn func(kind byte, seq uint64, batch [][]byte)) {
	err := s.log.Range(0, func(_ uint64, body []byte) error {
		kind, seq, batch, err := decodeStorageRecord(body)
		if err != nil {
			return err
		}
		fn(kind, seq, batch)
		return nil
	})
	if err != nil {
		s.logf("kafkaorder: ranging log: %v", err)
	}
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
		s.logf("kafkaorder: closing storage: %v", err)
	}
}
