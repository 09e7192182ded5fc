package xov

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/oxii"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
	"parblockchain/internal/workload"
)

// Client errors.
var (
	// ErrEndorseTimeout is returned when the endorsement policy cannot be
	// satisfied within the deadline.
	ErrEndorseTimeout = errors.New("xov: endorsement timed out")
	// ErrRetriesExhausted is returned when a transaction keeps aborting
	// on MVCC conflicts.
	ErrRetriesExhausted = errors.New("xov: retries exhausted")
)

// ClientConfig parameterizes an XOV client driver.
type ClientConfig struct {
	// ID is the client identity.
	ID types.NodeID
	// Endpoint is the client's transport attachment; the client owns its
	// Recv loop (XOV clients participate in two protocol phases, which
	// is why moving them to a far zone hurts XOV most, Figure 7(a)).
	Endpoint transport.Endpoint
	// Signer signs transactions and their envelopes.
	Signer cryptoutil.Signer
	// Orderers lists the ordering nodes.
	Orderers []types.NodeID
	// Agents maps applications to endorsers.
	Agents map[types.AppID][]types.NodeID
	// Tau is the endorsement policy size per application (default 1).
	Tau map[types.AppID]int
	// Router resolves validation results observed at the observer peer.
	Router *oxii.CommitRouter
	// MaxRetries bounds resubmission after MVCC aborts (default 25).
	MaxRetries int
}

// Client drives the three-phase XOV flow: endorse, order, await
// validation; MVCC-aborted transactions are re-endorsed and resubmitted,
// which is how a Fabric application must respond to validation aborts.
// The ordering phase is an oxii.Client's: the envelope is signed, sent
// round-robin to the orderers and resubmitted to the next one on a slow
// commit, exactly as OX and OXII transactions are.
type Client struct {
	cfg ClientConfig
	sub *oxii.Client

	mu       sync.Mutex
	endorse  map[types.TxID]chan *EndorsementMsg
	retries  atomic.Uint64
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewClient builds and starts an XOV client driver.
func NewClient(cfg ClientConfig) *Client {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 25
	}
	c := &Client{
		cfg:     cfg,
		sub:     oxii.NewClient(cfg.ID, cfg.Endpoint, cfg.Signer, cfg.Orderers, cfg.Router),
		endorse: make(map[types.TxID]chan *EndorsementMsg),
		stopCh:  make(chan struct{}),
	}
	c.wg.Add(1)
	go c.recvLoop()
	return c
}

// Stop terminates the client's receive loop and releases any goroutines
// blocked in Do's endorsement phase; those awaiting a commit are released
// by the router's Shutdown.
func (c *Client) Stop() {
	c.stopOnce.Do(func() {
		close(c.stopCh)
		c.cfg.Endpoint.Close()
	})
	c.wg.Wait()
}

// ID returns the client identity.
func (c *Client) ID() types.NodeID { return c.cfg.ID }

// Retries returns the cumulative number of MVCC-conflict resubmissions,
// the visible cost of XOV under contention.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// Prepare stamps an operation into a transaction owned by this client.
func (c *Client) Prepare(app types.AppID, op types.Operation) *types.Transaction {
	return &types.Transaction{App: app, Client: c.cfg.ID, Op: op}
}

func (c *Client) recvLoop() {
	defer c.wg.Done()
	for msg := range c.cfg.Endpoint.Recv() {
		m, ok := msg.Payload.(*EndorsementMsg)
		if !ok || m.Endorser != msg.From {
			continue
		}
		c.mu.Lock()
		ch := c.endorse[m.TxID]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- m:
			default: // late or surplus endorsement
			}
		}
	}
}

// Do runs the full execute-order-validate cycle for the operation,
// retrying MVCC aborts, and returns the final result plus the number of
// attempts made.
func (c *Client) Do(tx *types.Transaction, timeout time.Duration) (types.TxResult, int, error) {
	deadline := time.Now().Add(timeout)
	for attempt := 1; ; attempt++ {
		// Fresh identity per attempt: a retried transaction is a new
		// request from the application's point of view.
		txn := c.sub.Prepare(tx.App, tx.Op)
		workload.Finalize(txn, time.Now().UnixNano(), func(d []byte) []byte {
			return c.cfg.Signer.Sign(d)
		})
		etx, err := c.endorseOnce(txn, deadline)
		if err != nil {
			return types.TxResult{}, attempt, err
		}
		if etx.SimAborted {
			// Deterministic contract failure: reported without ordering.
			return types.TxResult{
				TxID: txn.ID, Aborted: true, AbortReason: etx.AbortReason,
			}, attempt, nil
		}
		result, err := c.sub.Do(etx.Envelope(), time.Until(deadline))
		if err != nil {
			return types.TxResult{}, attempt, err
		}
		if result.Aborted && result.AbortReason == AbortMVCCConflict {
			if attempt >= c.cfg.MaxRetries {
				return result, attempt, fmt.Errorf("%w after %d attempts", ErrRetriesExhausted, attempt)
			}
			c.retries.Add(1)
			continue
		}
		return result, attempt, nil
	}
}

// endorseOnce gathers tau(A) matching endorsements for the transaction.
func (c *Client) endorseOnce(txn *types.Transaction, deadline time.Time) (*EndorsedTx, error) {
	agents := c.cfg.Agents[txn.App]
	if len(agents) == 0 {
		return nil, fmt.Errorf("xov: no endorsers for application %s", txn.App)
	}
	need := 1
	if t, ok := c.cfg.Tau[txn.App]; ok && t > 0 {
		need = t
	}
	ch := make(chan *EndorsementMsg, len(agents))
	c.mu.Lock()
	c.endorse[txn.ID] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.endorse, txn.ID)
		c.mu.Unlock()
	}()
	for _, agent := range agents {
		if err := c.cfg.Endpoint.Send(agent, &EndorseRequestMsg{Tx: txn}); err != nil {
			return nil, fmt.Errorf("xov: endorse request to %s: %w", agent, err)
		}
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	byDigest := make(map[types.Hash][]*EndorsementMsg, 2)
	for {
		select {
		case <-c.stopCh:
			return nil, errors.New("xov: client stopped")
		case m := <-ch:
			d := m.ContentDigest()
			byDigest[d] = append(byDigest[d], m)
			if ms := byDigest[d]; len(ms) >= need {
				first := ms[0]
				etx := &EndorsedTx{
					Tx:          txn,
					ReadVers:    first.ReadVers,
					Writes:      first.Writes,
					SimAborted:  first.Aborted,
					AbortReason: first.AbortReason,
				}
				for _, m := range ms {
					etx.Endorsers = append(etx.Endorsers, m.Endorser)
					etx.Sigs = append(etx.Sigs, m.Sig)
				}
				return etx, nil
			}
		case <-timer.C:
			return nil, fmt.Errorf("%w: %s", ErrEndorseTimeout, txn.ID)
		}
	}
}
