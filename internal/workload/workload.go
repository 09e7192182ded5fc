// Package workload generates the accounting workloads of the paper's
// evaluation (Section V): streams of asset-transfer transactions over a
// configurable number of applications with a controlled degree of
// contention.
//
// The contention knob reproduces the paper's four workload classes:
//
//   - 0%   (no contention): every transaction touches a fresh, disjoint
//     pair of accounts, so no block contains conflicting transactions.
//   - d%   (low/high contention): a d fraction of transactions operate on
//     one hot account, conflicting with each other.
//   - 100% (full contention): every transaction hits the hot account;
//     the block's dependency graph is a chain.
//
// Conflicts are placed either within one application (the paper's solid
// OXII lines) or across applications (the dashed OXII* lines): in
// cross-application mode consecutive conflicting transactions alternate
// applications while sharing the hot records, producing the
// "chain of transactions where consecutive transactions belong to
// different applications" of Figure 6(d).
package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"parblockchain/internal/contract"
	"parblockchain/internal/types"
)

// Config parameterizes a workload generator.
type Config struct {
	// Apps lists the applications transactions are spread over.
	Apps []types.AppID
	// Contention is the fraction of transactions in [0,1] that target the
	// hot account, so every conflicting pair conflicts with each other:
	// the paper's chain shape.
	Contention float64
	// CrossApp places conflicting transactions on alternating
	// applications over shared hot records (the OXII* workloads). When
	// false, all conflicting transactions belong to Apps[0], so the
	// full-contention graph is a single chain inside one application.
	CrossApp bool
	// ColdAccountsPerApp is the size of each application's disjoint
	// account pool for non-conflicting traffic. Pairs are handed out
	// cyclically, so the pool must well exceed twice the block size to
	// keep a no-contention workload conflict-free within a block.
	// Defaults to 100000.
	ColdAccountsPerApp int
	// Amount is the per-transfer amount. Defaults to 1.
	Amount int64
	// InitialBalance is the genesis balance of every account. Defaults to
	// 1e12 so balance aborts never occur unless injected.
	InitialBalance int64
	// AbortFraction injects transactions drawn from an unfunded account,
	// which deterministically abort. Used by fault-injection tests.
	AbortFraction float64
	// Seed makes the stream reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.ColdAccountsPerApp <= 0 {
		c.ColdAccountsPerApp = 100000
	}
	if c.Amount <= 0 {
		c.Amount = 1
	}
	if c.InitialBalance <= 0 {
		c.InitialBalance = 1_000_000_000_000
	}
	return c
}

// Generator produces a reproducible transaction stream. It is safe for
// concurrent use by many client goroutines.
type Generator struct {
	cfg Config

	mu       sync.Mutex
	rng      *rand.Rand
	coldNext map[types.AppID]int
	appRR    int // round-robin cursor over apps for cold traffic
	hotApp   int // round-robin cursor over apps for cross-app conflicts
	txSeq    uint64
}

// New returns a generator for the config.
func New(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	return &Generator{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		coldNext: make(map[types.AppID]int, len(cfg.Apps)),
	}
}

// Seed returns the deterministic RNG seed the generator was built with.
// Two generators with equal configs (and hence equal seeds) produce
// identical streams; tests use this to reproduce a failing trace from a
// logged seed.
func (g *Generator) Seed() int64 { return g.cfg.Seed }

// Trace deterministically materializes the next n transactions of the
// stream for one client, with ClientTS 1..n relative to the generator's
// current position. A fresh generator with the same config yields the
// same trace bit for bit, which is what the pipeline-equivalence and
// race suites replay across executor configurations.
func (g *Generator) Trace(client types.NodeID, n int) []*types.Transaction {
	out := make([]*types.Transaction, n)
	for i := range out {
		out[i] = g.Next(client, uint64(i+1))
	}
	return out
}

// HotKey returns the hot account key of an application (or the shared
// cross-application key when CrossApp is set).
func (g *Generator) HotKey(app types.AppID) types.Key {
	if g.cfg.CrossApp {
		return "shared/hot0000"
	}
	return string(app) + "/hot0000"
}

// ColdKey returns the i-th cold account key of an application.
func (g *Generator) ColdKey(app types.AppID, i int) types.Key {
	return fmt.Sprintf("%s/acct%08d", app, i)
}

// poorKey is an account that is never funded; transfers from it abort.
func (g *Generator) poorKey(app types.AppID) types.Key {
	return fmt.Sprintf("%s/poor", app)
}

// Genesis returns the funded-account records to install in every node's
// state store before the run: all cold pools and the hot accounts.
func (g *Generator) Genesis() []types.KV {
	cfg := g.cfg
	out := make([]types.KV, 0, len(cfg.Apps)*(cfg.ColdAccountsPerApp+1))
	balance := contract.EncodeBalance(cfg.InitialBalance)
	for _, app := range cfg.Apps {
		for i := 0; i < cfg.ColdAccountsPerApp; i++ {
			out = append(out, types.KV{Key: g.ColdKey(app, i), Val: balance})
		}
	}
	if cfg.CrossApp {
		out = append(out, types.KV{Key: g.HotKey(""), Val: balance})
	} else {
		for _, app := range cfg.Apps {
			out = append(out, types.KV{Key: g.HotKey(app), Val: balance})
		}
	}
	return out
}

// Next produces the next transaction for the given client. The returned
// transaction is unsigned; the client assigns SubmitUnixNano, ID and Sig
// before submission (see Finalize).
func (g *Generator) Next(client types.NodeID, clientTS uint64) *types.Transaction {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.txSeq++

	var app types.AppID
	var op types.Operation
	// One uniform draw partitioned into abort/hot/cold bands, so each
	// configured fraction is exact. (Two chained draws would make the hot
	// fraction (1-AbortFraction)·Contention — with fault injection on,
	// the generator silently undershot the configured contention.)
	d := g.rng.Float64()
	switch {
	case d < g.cfg.AbortFraction:
		app = g.nextColdApp()
		// Drawn from an unfunded account: aborts deterministically.
		op = contract.TransferOp(g.poorKey(app), g.nextColdKey(app), g.cfg.Amount)
	case d < g.cfg.AbortFraction+g.cfg.Contention:
		app, op = g.nextHotOp()
	default:
		app = g.nextColdApp()
		from := g.nextColdKey(app)
		to := g.nextColdKey(app)
		op = contract.TransferOp(from, to, g.cfg.Amount)
	}
	return &types.Transaction{
		App:      app,
		Client:   client,
		ClientTS: clientTS,
		Op:       op,
	}
}

// nextHotOp builds a conflicting transaction: a transfer from the hot
// account to a fresh cold account, so consecutive hot transactions form
// write-write/read-write chains on the hot record.
func (g *Generator) nextHotOp() (types.AppID, types.Operation) {
	var app types.AppID
	if g.cfg.CrossApp {
		app = g.cfg.Apps[g.hotApp%len(g.cfg.Apps)]
		g.hotApp++
	} else {
		app = g.cfg.Apps[0]
	}
	return app, contract.TransferOp(g.HotKey(app), g.nextColdKey(app), g.cfg.Amount)
}

func (g *Generator) nextColdApp() types.AppID {
	app := g.cfg.Apps[g.appRR%len(g.cfg.Apps)]
	g.appRR++
	return app
}

// nextColdKey hands out cold accounts cyclically so that concurrent
// transactions touch disjoint records until the pool wraps.
func (g *Generator) nextColdKey(app types.AppID) types.Key {
	i := g.coldNext[app]
	g.coldNext[app] = (i + 1) % g.cfg.ColdAccountsPerApp
	return g.ColdKey(app, i)
}

// Finalize stamps client-side metadata and signs the transaction: it sets
// SubmitUnixNano, derives the ID from the digest, and signs with the
// client's signer. It seals the transaction (types.Transaction.Seal), so
// the caller must not edit it afterwards.
func Finalize(tx *types.Transaction, nowUnixNano int64, sign func(digest []byte) []byte) {
	// Canonicalize the declared access sets before anything commits to
	// the transaction's bytes: the digest (hence ID and signature) must
	// cover the same ordering the orderers' graph builders and the
	// ledger's Merkle commitment see, so no node ever needs to mutate a
	// signed transaction. Orderers drop non-canonical sets outright.
	tx.Op.Reads = types.NormalizeKeys(tx.Op.Reads)
	tx.Op.Writes = types.NormalizeKeys(tx.Op.Writes)
	tx.SubmitUnixNano = nowUnixNano
	// ID and Sig are outside the digest, so setting them after Seal is not
	// an edit of a sealed field.
	digest := tx.Seal()
	tx.ID = types.TxID(digest.String()[:16] + "-" + string(tx.Client))
	tx.Sig = sign(digest[:])
}
