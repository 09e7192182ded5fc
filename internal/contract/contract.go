// Package contract implements the smart-contract runtime: the execution
// interface agents invoke, a per-application registry (the paper's
// "program code including the logic of the application installed on the
// agents"), a configurable execution-cost wrapper used to model contract
// service time in benchmarks, and three concrete contracts — the
// accounting application from the paper's evaluation, a generic key-value
// contract, and a supply-chain contract exercising cross-application
// dependencies.
package contract

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// ErrAbort wraps contract-level validation failures. An execution error
// means the transaction commits "as aborted": it keeps its slot in the
// block but writes nothing (the paper's (x, "abort") result).
var ErrAbort = errors.New("contract: transaction aborted")

// Contract is the logic of one application. Execute must be deterministic:
// given the same view contents and operation, every agent must produce the
// same writes or the same error, since executors cross-check results
// digest-for-digest (Algorithm 3).
type Contract interface {
	// Execute runs one operation against the given read view and returns
	// the updated records. A returned error aborts the transaction.
	//
	// Execute must only read keys in op.Reads and only write keys in
	// op.Writes; the dependency graph and the block overlay are built
	// from those declared sets. Writes are enforced: Registry.Execute
	// aborts a result that writes a key outside op.Writes. Reads are not
	// checked, so an undeclared read breaks the partial order's
	// correctness silently.
	Execute(view state.Reader, op types.Operation) ([]types.KV, error)
}

// Func adapts a function to the Contract interface.
type Func func(view state.Reader, op types.Operation) ([]types.KV, error)

// Execute invokes the function.
func (f Func) Execute(view state.Reader, op types.Operation) ([]types.KV, error) {
	return f(view, op)
}

var _ Contract = Func(nil)

// Registry maps application IDs to their installed contracts on one
// executor node. Only the agents of an application install its contract,
// which is how the paradigm confines application logic (and hence
// confidential business rules) to the chosen subset of peers.
// Registry is safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	contracts map[types.AppID]Contract
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{contracts: make(map[types.AppID]Contract)}
}

// Install registers the contract for an application, replacing any
// previous installation.
func (r *Registry) Install(app types.AppID, c Contract) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.contracts[app] = c
}

// Lookup returns the contract installed for app.
func (r *Registry) Lookup(app types.AppID) (Contract, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.contracts[app]
	return c, ok
}

// Apps returns the applications with installed contracts, i.e. the
// applications this node is an agent for.
func (r *Registry) Apps() []types.AppID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	apps := make([]types.AppID, 0, len(r.contracts))
	for app := range r.contracts {
		apps = append(apps, app)
	}
	return apps
}

// Execute runs op for app through the installed contract. A result that
// writes a key outside op.Writes aborts, with the same reason on every
// agent (the contract is deterministic).
func (r *Registry) Execute(app types.AppID, view state.Reader, op types.Operation) ([]types.KV, error) {
	c, ok := r.Lookup(app)
	if !ok {
		return nil, fmt.Errorf("contract: no contract installed for application %q", app)
	}
	writes, err := c.Execute(view, op)
	if err != nil {
		return nil, err
	}
	if key, bad := op.UndeclaredWrite(writes); bad {
		return nil, fmt.Errorf("%w: write to undeclared key %q", ErrAbort, key)
	}
	return writes, nil
}

// CostModel models the service time of contract execution. The paper's
// testbed ran CPU-heavy contract logic on one 8-vCPU VM per node; this
// reproduction runs the whole cluster in one process, so by default the
// cost is modeled as sleep time (which scales with goroutine parallelism
// the way per-node CPU does in the testbed) with an optional CPU-spin
// fraction for CPU-bound ablations. See README.md, "Substitutions".
type CostModel struct {
	// Cost is the total simulated service time per execution.
	Cost time.Duration
	// SpinFraction in [0,1] is the portion of Cost burned as CPU spin
	// instead of sleep.
	SpinFraction float64
}

// Apply blocks for the modeled service time.
func (m CostModel) Apply() {
	if m.Cost <= 0 {
		return
	}
	spin := time.Duration(float64(m.Cost) * m.SpinFraction)
	if sleepPart := m.Cost - spin; sleepPart > 0 {
		time.Sleep(sleepPart)
	}
	if spin > 0 {
		deadline := time.Now().Add(spin)
		for time.Now().Before(deadline) {
			// busy-wait
		}
	}
}

// WithCost wraps a contract so every execution pays the modeled service
// time before running the logic.
func WithCost(inner Contract, model CostModel) Contract {
	if model.Cost <= 0 {
		return inner
	}
	return Func(func(view state.Reader, op types.Operation) ([]types.KV, error) {
		model.Apply()
		return inner.Execute(view, op)
	})
}
