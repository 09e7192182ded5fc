package ordering

import (
	"fmt"
	"testing"
	"time"

	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// BenchmarkOrdererDurable measures the durable log's cost on the block
// cut path: transactions flow client → orderer → consensus → cut →
// NEWBLOCK exactly as in the tests, with the cut-record fsync on the
// critical path when a Dir is mounted. The mem row is the in-memory
// baseline; wal fsyncs once per cut (entry records ride the group
// commit), so fsyncs/block reads ~1.
func BenchmarkOrdererDurable(b *testing.B) {
	b.Run("mem", func(b *testing.B) { benchOrdererCutPath(b, "") })
	b.Run("wal-group", func(b *testing.B) { benchOrdererCutPath(b, b.TempDir()) })
}

func benchOrdererCutPath(b *testing.B, dir string) {
	const blockTxns = 64
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	ordEP, _ := net.Endpoint("o1")
	execEP, _ := net.Endpoint("e1")
	clientEP, _ := net.Endpoint("c1")
	o, err := New(Config{
		ID:               "o1",
		Endpoint:         ordEP,
		Consensus:        newFakeConsensus(),
		Executors:        []types.NodeID{"e1"},
		Signer:           cryptoutil.NoopSigner{NodeID: "o1"},
		Verifier:         cryptoutil.NoopVerifier{},
		MaxBlockTxns:     blockTxns,
		MaxBlockInterval: 10 * time.Second, // count-driven cuts only
		BuildGraph:       true,
		Dir:              dir,
		Logf:             func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	o.Start()
	defer o.Stop()

	blocks := b.N / blockTxns
	if blocks == 0 {
		blocks = 1
	}
	total := blocks * blockTxns
	done := make(chan struct{})
	go func() {
		defer close(done)
		seen := 0
		for msg := range execEP.Recv() {
			if _, ok := msg.Payload.(*types.NewBlockMsg); ok {
				if seen++; seen == blocks {
					return
				}
			}
		}
	}()

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < total; i++ {
		tx := testTx("c1", uint64(i+1), nil,
			[]types.Key{types.Key(fmt.Sprintf("k%d", i&7))})
		if err := clientEP.Send("o1", &types.RequestMsg{Tx: tx}); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(total)/elapsed.Seconds(), "tx/s")
	if dir != "" {
		b.ReportMetric(float64(o.Stats().LogSyncs)/float64(blocks), "fsyncs/block")
	}
}
