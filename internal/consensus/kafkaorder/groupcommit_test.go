package kafkaorder

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parblockchain/internal/consensus"
	"parblockchain/internal/types"
)

// TestGroupCommitOneSyncPerDrain: a follower that finds a commit for a
// batch it logged and the next batch's Append queued together logs both
// records with one fsync, and still acks and delivers only after it.
func TestGroupCommitOneSyncPerDrain(t *testing.T) {
	dir := t.TempDir()
	ids := []types.NodeID{"k1", "k2"}
	acks := make(chan uint64, 8)
	sender := consensus.SenderFunc(func(_ types.NodeID, msg any) error {
		if a, ok := msg.(Ack); ok {
			acks <- a.Seq
		}
		return nil
	})
	open := func() *Node {
		k, err := New(Config{ID: "k2", Members: ids, Sender: sender, Dir: dir, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	waitAck := func(want uint64) {
		t.Helper()
		select {
		case got := <-acks:
			if got != want {
				t.Fatalf("Ack %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no Ack for batch %d", want)
		}
	}

	k := open()
	k.Step("k1", Append{Seq: 1, Batch: [][]byte{[]byte("a")}})
	k.Start()
	waitAck(1)
	k.Stop()

	k = open()
	t.Cleanup(k.Stop)
	k.Step("k1", CommitAnn{Seq: 1})
	k.Step("k1", Append{Seq: 2, Batch: [][]byte{[]byte("b")}})
	k.Start()
	select {
	case e := <-k.Committed():
		if string(e.Payload) != "a" {
			t.Fatalf("delivered %q, want %q", e.Payload, "a")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch 1 was not delivered")
	}
	waitAck(2)
	if got := k.storage.log.Stats().Syncs; got != 1 {
		t.Fatalf("the drain of CommitAnn 1 and Append 2 cost %d log syncs, want 1", got)
	}
}

// sentLog records the protocol messages one member sent.
type sentLog struct {
	mu   sync.Mutex
	msgs []any
}

func (s *sentLog) add(msg any) {
	s.mu.Lock()
	s.msgs = append(s.msgs, msg)
	s.mu.Unlock()
}

// TestGroupCommitReleasesOnlyDurable crashes every member of a loaded
// three-member cluster at random points, round after round on the same
// data dirs, and checks each member's reopened log against what it let
// out before its crash: every Append and Ack it sent has its batch
// record, every CommitAnn its commit record, and every entry it
// delivered lies in its committed prefix.
func TestGroupCommitReleasesOnlyDurable(t *testing.T) {
	dir := t.TempDir()
	ids := []types.NodeID{"k1", "k2", "k3"}
	rng := rand.New(rand.NewPCG(1, 51))
	for round := 0; round < 6; round++ {
		nodes := make(map[types.NodeID]*Node, len(ids))
		sent := make(map[types.NodeID]*sentLog, len(ids))
		for _, id := range ids {
			rec := &sentLog{}
			sent[id] = rec
			n, err := New(Config{
				ID: id, Members: ids,
				Sender: consensus.SenderFunc(func(to types.NodeID, msg any) error {
					rec.add(msg)
					nodes[to].Step(id, msg)
					return nil
				}),
				Batch: consensus.BatchConfig{MaxMsgs: 8, MaxDelayMillis: 1},
				Dir:   filepath.Join(dir, string(id)),
				Logf:  t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes[id] = n
		}
		delivered := make(map[types.NodeID]*atomic.Uint64, len(ids))
		var consumers sync.WaitGroup
		for _, id := range ids {
			top := &atomic.Uint64{}
			delivered[id] = top
			consumers.Add(1)
			go func(n *Node) {
				defer consumers.Done()
				for e := range n.Committed() {
					top.Store(e.Seq)
				}
			}(nodes[id])
			nodes[id].Start()
		}

		stop := make(chan struct{})
		loaded := make(chan struct{})
		go func() {
			defer close(loaded)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = nodes[ids[i%len(ids)]].Submit([]byte(fmt.Sprintf("r%d-%d", round, i)))
				time.Sleep(50 * time.Microsecond)
			}
		}()
		time.Sleep(time.Duration(2+rng.IntN(20)) * time.Millisecond)
		for _, i := range rng.Perm(len(ids)) {
			nodes[ids[i]].Crash()
			time.Sleep(time.Duration(rng.IntN(3000)) * time.Microsecond)
		}
		close(stop)
		<-loaded
		consumers.Wait()

		for _, id := range ids {
			s, slots, _, err := openStorage(filepath.Join(dir, string(id)), t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			s.close(false)
			has := func(seq uint64) bool { return slots[seq] != nil && slots[seq].batch != nil }
			for _, msg := range sent[id].msgs {
				switch m := msg.(type) {
				case Append:
					if !has(m.Seq) {
						t.Fatalf("round %d: %s sent Append %d without its batch record", round, id, m.Seq)
					}
				case Ack:
					if !has(m.Seq) {
						t.Fatalf("round %d: %s sent Ack %d without its batch record", round, id, m.Seq)
					}
				case CommitAnn:
					if !has(m.Seq) || !slots[m.Seq].committed {
						t.Fatalf("round %d: %s sent CommitAnn %d without its commit record", round, id, m.Seq)
					}
				}
			}
			var prefix uint64
			for seq := uint64(1); has(seq) && slots[seq].committed; seq++ {
				prefix += uint64(len(slots[seq].batch))
			}
			if top := delivered[id].Load(); top > prefix {
				t.Fatalf("round %d: %s delivered entry %d, but its log commits only %d", round, id, top, prefix)
			}
		}
	}
}
