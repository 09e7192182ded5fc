package node

import (
	"parblockchain/internal/execution"
	"parblockchain/internal/ordering"
	"parblockchain/internal/persist"
)

// Effective returns the execution and persist configs the node's knobs
// map onto.
func (n *Executor) Effective() (execution.Config, persist.Config) {
	return n.cfg.executorConfig(), n.cfg.persistConfig()
}

// Effective returns the ordering config the node's knobs map onto.
func (n *Orderer) Effective() ordering.Config { return n.cfg.ordererConfig() }
