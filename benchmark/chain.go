package main

import "parblockchain/internal/types"

// chainDepth tracks the longest conflict chain in a sequence of
// transactions, in committed order. A transaction conflicts with an
// earlier one when they touch a common key and at least one of the two
// writes it, so its depth is one more than the deepest earlier writer of
// any key it touches or earlier reader of any key it writes. Writers of a
// key conflict with each other, so the last writer is the deepest; readers
// do not, so the deepest reader is kept.
//
// The longest chain is what no amount of parallelism can shorten: with a
// service time c per transaction, n transactions whose longest chain has
// d links need at least d*c, however many workers there are. Inside one
// block the depth equals depgraph's Graph.CriticalPathLen.
type chainDepth struct {
	writer map[types.Key]int
	reader map[types.Key]int
	max    int
}

func newChainDepth() *chainDepth {
	return &chainDepth{writer: make(map[types.Key]int), reader: make(map[types.Key]int)}
}

func (c *chainDepth) add(reads, writes []types.Key) int {
	d := 0
	for _, k := range reads {
		if c.writer[k] > d {
			d = c.writer[k]
		}
	}
	for _, k := range writes {
		if c.writer[k] > d {
			d = c.writer[k]
		}
		if c.reader[k] > d {
			d = c.reader[k]
		}
	}
	d++
	for _, k := range reads {
		if c.reader[k] < d {
			c.reader[k] = d
		}
	}
	for _, k := range writes {
		c.writer[k] = d
	}
	if d > c.max {
		c.max = d
	}
	return d
}

// addBlock adds a block's transactions in order and returns the longest
// chain seen so far.
func (c *chainDepth) addBlock(b *types.Block) int {
	for _, tx := range b.Txns {
		c.add(tx.Op.Reads, tx.Op.Writes)
	}
	return c.max
}
