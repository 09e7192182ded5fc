package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/ledger"
	"parblockchain/internal/oxii"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

func nodeIDs(prefix string, n int) []types.NodeID {
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(fmt.Sprintf("%s%d", prefix, i+1))
	}
	return ids
}

// agentsOf assigns each application agentsPerApp consecutive executors,
// wrapping around: app1 -> e1(,e2), app2 -> e2(,e3), app3 -> e3(,e1).
func agentsOf(s spec) map[types.AppID][]types.NodeID {
	executors := nodeIDs("e", numExecutors)
	out := make(map[types.AppID][]types.NodeID, numApps)
	for i, app := range appIDs() {
		for k := 0; k < s.agentsPerApp; k++ {
			out[app] = append(out[app], executors[(i+k)%numExecutors])
		}
	}
	return out
}

func genesisKVs(s spec) []types.KV {
	balances := genesisBalances(s)
	keys := make([]string, 0, len(balances))
	for k := range balances {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]types.KV, len(keys))
	for i, k := range keys {
		out[i] = types.KV{Key: k, Val: contract.EncodeBalance(balances[k])}
	}
	return out
}

// tap is the passive probe of the traced pass. It sits on the in-process
// network's ExtraLatency hook (called synchronously on every send) and on
// the observer's commit hook, adds no delay, and records per block when
// its first NEWBLOCK left an orderer and when the observer externalized
// it. Times are nanoseconds since epoch.
type tap struct {
	epoch time.Time
	mu    sync.Mutex
	sent  map[uint64]int64 // block number -> first NEWBLOCK send
	done  map[uint64]int64 // block number -> observer OnCommit
}

func newTap(epoch time.Time) *tap {
	return &tap{epoch: epoch, sent: make(map[uint64]int64), done: make(map[uint64]int64)}
}

func (t *tap) onSend(_, _ types.NodeID, payload any) time.Duration {
	if m, ok := payload.(*types.NewBlockMsg); ok {
		now := int64(time.Since(t.epoch))
		t.mu.Lock()
		if _, seen := t.sent[m.Block.Header.Number]; !seen {
			t.sent[m.Block.Header.Number] = now
		}
		t.mu.Unlock()
	}
	return 0
}

func (t *tap) onCommit(block *types.Block, _ []types.TxResult) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.done[block.Header.Number] = now
	t.mu.Unlock()
}

// inproc is one in-process ParBlockchain deployment.
type inproc struct {
	net    *transport.InMemNetwork
	nw     *oxii.Network
	cl     *oxii.Client
	tap    *tap // nil unless traced
	logged int  // diagnostics the cluster printed (expected: none)
	logMu  sync.Mutex
}

// startInproc builds and starts the deployment a workload describes.
// traced turns on the executors' block tracer and installs the tap.
func startInproc(s spec, traced bool, epoch time.Time) (*inproc, error) {
	c := &inproc{}
	netCfg := transport.InMemConfig{Latency: transport.ConstantLatency(netDelay)}
	cfg := oxii.Config{
		Orderers:         nodeIDs("o", numOrderers),
		Executors:        nodeIDs("e", numExecutors),
		Clients:          []types.NodeID{"c1"},
		Agents:           agentsOf(s),
		Contracts:        make(map[types.AppID]contract.Contract, numApps),
		Tau:              make(map[types.AppID]int, numApps),
		MaxBlockTxns:     blockTxns,
		MaxBlockInterval: blockIntervalMs * time.Millisecond,
		Genesis:          genesisKVs(s),
		Trace:            traced,
		Logf: func(format string, args ...any) {
			c.logMu.Lock()
			defer c.logMu.Unlock()
			if c.logged++; c.logged <= 5 {
				logf("cluster: "+format, args...)
			}
		},
	}
	for _, app := range appIDs() {
		cfg.Contracts[app] = contract.WithCost(contract.NewAccounting(), contract.CostModel{Cost: s.cost})
		cfg.Tau[app] = s.tau
	}
	if traced {
		c.tap = newTap(epoch)
		netCfg.ExtraLatency = c.tap.onSend
		cfg.OnCommit = c.tap.onCommit
	}
	c.net = transport.NewInMemNetwork(netCfg)
	cfg.Net = c.net
	nw, err := oxii.New(cfg)
	if err != nil {
		c.net.Close()
		return nil, err
	}
	c.nw = nw
	nw.Start()
	if c.cl, err = nw.Client("c1"); err != nil {
		c.discard()
		return nil, err
	}
	return c, nil
}

func (c *inproc) client() submitter { return c.cl }

func (c *inproc) children() []int { return nil }

func (c *inproc) height() uint64 { return c.nw.Ledgers[0].Height() }

// discard stops the deployment; stopping twice is harmless.
func (c *inproc) discard() {
	c.nw.Stop()
	c.net.Close()
}

// replica is one executor's final state, as the correctness gate sees it.
type replica struct {
	name      string
	stateHash types.Hash
	ledger    *ledger.Ledger
}

// stop waits until every executor has caught up with the observer, shuts
// the deployment down and returns the executors' final state.
func (c *inproc) stop() ([]replica, time.Duration, error) {
	err := c.waitCaughtUp()
	c.discard() // store hashes stay readable after Stop
	if err != nil {
		return nil, 0, err
	}
	out := make([]replica, len(c.nw.Ledgers))
	for i := range out {
		out[i] = replica{
			name:      fmt.Sprintf("e%d", i+1),
			stateHash: c.nw.Stores[i].Hash(),
			ledger:    c.nw.Ledgers[i],
		}
	}
	return out, 0, nil
}

func (c *inproc) waitCaughtUp() error {
	want := c.nw.Ledgers[0].Height()
	deadline := time.Now().Add(10 * time.Second)
	for i, led := range c.nw.Ledgers {
		for led.Height() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("executor e%d stuck at height %d, observer at %d", i+1, led.Height(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}
