package oxii

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/execution"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
	"parblockchain/internal/workload"
)

// ErrTimeout is returned by Client.Do when a transaction does not commit
// within the deadline.
var ErrTimeout = errors.New("oxii: transaction commit timed out")

// CommitRouter fans finalized transaction results out to the clients
// waiting on them. The observer executor's commit hook feeds it; clients
// register interest by transaction ID before submitting.
type CommitRouter struct {
	mu      sync.Mutex
	waiters map[types.TxID]chan types.TxResult
	closed  bool
}

// NewCommitRouter returns an empty router.
func NewCommitRouter() *CommitRouter {
	return &CommitRouter{waiters: make(map[types.TxID]chan types.TxResult)}
}

// Hook returns an execution.CommitHook that resolves registered waiters.
func (r *CommitRouter) Hook() func(block *types.Block, results []types.TxResult) {
	return func(block *types.Block, results []types.TxResult) {
		for i := range results {
			r.resolve(results[i])
		}
	}
}

// ObserverHook returns the commit hook of a deployment's observer: Hook,
// then user when non-nil. Only the observer carries it; a hook on every
// replica would resolve and report each block once per replica.
func (r *CommitRouter) ObserverHook(user execution.CommitHook) execution.CommitHook {
	resolve := r.Hook()
	if user == nil {
		return resolve
	}
	return func(block *types.Block, results []types.TxResult) {
		resolve(block, results)
		user(block, results)
	}
}

// ServeNotifications resolves registered waiters from the observer's
// CommitNotifyMsg stream until recv closes: what Hook is to an in-process
// deployment, for a client on a TCP endpoint of its own.
func (r *CommitRouter) ServeNotifications(recv <-chan transport.Message) {
	for msg := range recv {
		if n, ok := msg.Payload.(*types.CommitNotifyMsg); ok {
			r.resolve(types.TxResult{TxID: n.TxID, Aborted: n.Aborted, AbortReason: n.AbortReason})
		}
	}
}

// Register adds a waiter for a transaction and returns its completion
// channel (buffer 1; the router never blocks).
func (r *CommitRouter) Register(id types.TxID) <-chan types.TxResult {
	ch := make(chan types.TxResult, 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		close(ch)
		return ch
	}
	r.waiters[id] = ch
	return ch
}

// Cancel removes a waiter that gave up (e.g. timed out).
func (r *CommitRouter) Cancel(id types.TxID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.waiters, id)
}

func (r *CommitRouter) resolve(result types.TxResult) {
	r.mu.Lock()
	ch, ok := r.waiters[result.TxID]
	if ok {
		delete(r.waiters, result.TxID)
	}
	r.mu.Unlock()
	if ok {
		ch <- result
	}
}

// Shutdown releases all waiters with closed channels.
func (r *CommitRouter) Shutdown() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for id, ch := range r.waiters {
		close(ch)
		delete(r.waiters, id)
	}
}

// Client submits transactions to the ordering service and awaits their
// commitment, as observed at the observer executor. One Client is safe
// for concurrent use; submissions are spread round-robin over the
// orderers (any orderer forwards into consensus).
type Client struct {
	id       types.NodeID
	ep       transport.Endpoint
	signer   cryptoutil.Signer
	orderers []types.NodeID
	router   *CommitRouter
	ts       atomic.Uint64
	rr       atomic.Uint64
}

// NewClient builds a client driver around a transport endpoint.
func NewClient(id types.NodeID, ep transport.Endpoint, signer cryptoutil.Signer,
	orderers []types.NodeID, router *CommitRouter) *Client {
	return &Client{id: id, ep: ep, signer: signer, orderers: orderers, router: router}
}

// ID returns the client identity.
func (c *Client) ID() types.NodeID { return c.id }

// NextTS returns the next client-local timestamp (ts_c), which totally
// orders this client's requests and provides exactly-once semantics.
func (c *Client) NextTS() uint64 { return c.ts.Add(1) }

// Submit signs and sends a transaction, returning the channel its final
// result will arrive on. The transaction's Client and ClientTS fields
// must identify this client (Prepare does both).
func (c *Client) Submit(tx *types.Transaction) (<-chan types.TxResult, error) {
	workload.Finalize(tx, time.Now().UnixNano(), func(digest []byte) []byte {
		return c.signer.Sign(digest)
	})
	ch := c.router.Register(tx.ID)
	target := c.orderers[c.rr.Add(1)%uint64(len(c.orderers))]
	if err := c.ep.Send(target, &types.RequestMsg{Tx: tx}); err != nil {
		c.router.Cancel(tx.ID)
		return nil, fmt.Errorf("oxii: submitting %s: %w", tx.ID, err)
	}
	return ch, nil
}

// Prepare stamps a raw operation into a transaction owned by this client.
func (c *Client) Prepare(app types.AppID, op types.Operation) *types.Transaction {
	return &types.Transaction{
		App:      app,
		Client:   c.id,
		ClientTS: c.NextTS(),
		Op:       op,
	}
}

// Do submits the transaction and blocks until it commits or the timeout
// elapses. If no commit arrives within the per-orderer share of the
// timeout, the same transaction (same ID — orderers dedupe) is
// resubmitted to the next orderer, so a crashed orderer costs one retry
// slice rather than the whole operation.
func (c *Client) Do(tx *types.Transaction, timeout time.Duration) (types.TxResult, error) {
	workload.Finalize(tx, time.Now().UnixNano(), func(digest []byte) []byte {
		return c.signer.Sign(digest)
	})
	ch := c.router.Register(tx.ID)
	deadline := time.Now().Add(timeout)
	tries := len(c.orderers)
	for attempt := 0; attempt < tries; attempt++ {
		target := c.orderers[c.rr.Add(1)%uint64(len(c.orderers))]
		if err := c.ep.Send(target, &types.RequestMsg{Tx: tx}); err != nil {
			c.router.Cancel(tx.ID)
			return types.TxResult{}, fmt.Errorf("oxii: submitting %s: %w", tx.ID, err)
		}
		wait := time.Until(deadline)
		if remainingTries := tries - attempt; remainingTries > 1 {
			wait /= time.Duration(remainingTries)
		}
		timer := time.NewTimer(wait)
		select {
		case result, ok := <-ch:
			timer.Stop()
			if !ok {
				return types.TxResult{}, fmt.Errorf("oxii: network shut down awaiting %s", tx.ID)
			}
			return result, nil
		case <-timer.C:
			// Try the next orderer with the remaining budget.
		}
	}
	c.router.Cancel(tx.ID)
	return types.TxResult{}, fmt.Errorf("%w: %s after %s", ErrTimeout, tx.ID, timeout)
}
