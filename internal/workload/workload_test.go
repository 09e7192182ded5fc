package workload

import (
	"strings"
	"testing"

	"parblockchain/internal/depgraph"
	"parblockchain/internal/types"
)

func apps(n int) []types.AppID {
	out := make([]types.AppID, n)
	for i := range out {
		out[i] = types.AppID(string(rune('A' + i)))
	}
	return out
}

// graphOf builds the dependency graph of a generated block, the way the
// orderers would.
func graphOf(txns []*types.Transaction) *depgraph.Graph {
	sets := make([]depgraph.RWSet, len(txns))
	for i, tx := range txns {
		sets[i] = depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
		sets[i].Normalize()
	}
	return depgraph.Build(sets)
}

func genBlock(g *Generator, n int) []*types.Transaction {
	txns := make([]*types.Transaction, n)
	for i := range txns {
		txns[i] = g.Next("c1", uint64(i+1))
	}
	return txns
}

func TestNoContentionBlockIsConflictFree(t *testing.T) {
	g := New(Config{Apps: apps(3), Contention: 0, Seed: 1})
	txns := genBlock(g, 400)
	if got := graphOf(txns).EdgeCount(); got != 0 {
		t.Fatalf("no-contention block has %d edges, want 0", got)
	}
}

func TestFullContentionBlockIsChain(t *testing.T) {
	g := New(Config{Apps: apps(3), Contention: 1, Seed: 1})
	txns := genBlock(g, 100)
	graph := graphOf(txns)
	if !graph.IsChain() {
		t.Fatal("full-contention block must form a chain")
	}
	if got := graph.CriticalPathLen(); got != 100 {
		t.Fatalf("critical path = %d, want 100", got)
	}
	// Intra-application mode: every conflicting transaction belongs to
	// Apps[0], so the chain lives inside one application.
	for i, tx := range txns {
		if tx.App != "A" {
			t.Fatalf("tx %d app = %s, want A (intra-app contention)", i, tx.App)
		}
	}
}

func TestCrossAppContentionAlternatesApplications(t *testing.T) {
	g := New(Config{Apps: apps(3), Contention: 1, CrossApp: true, Seed: 1})
	txns := genBlock(g, 30)
	graph := graphOf(txns)
	if !graph.IsChain() {
		t.Fatal("cross-app full contention must still chain")
	}
	crossEdges := 0
	for i, succ := range graph.Succ {
		for _, j := range succ {
			if txns[i].App != txns[j].App {
				crossEdges++
			}
		}
	}
	if crossEdges == 0 {
		t.Fatal("cross-app mode must produce cross-application edges")
	}
	// Consecutive conflicting transactions must belong to different
	// applications ("a chain of transactions where consecutive
	// transactions belong to different applications").
	for i := 1; i < len(txns); i++ {
		if txns[i].App == txns[i-1].App {
			t.Fatalf("consecutive transactions %d,%d share app %s", i-1, i, txns[i].App)
		}
	}
}

func TestPartialContentionFraction(t *testing.T) {
	g := New(Config{Apps: apps(3), Contention: 0.2, Seed: 42})
	txns := genBlock(g, 2000)
	hot := 0
	for _, tx := range txns {
		for _, k := range tx.Op.Writes {
			if k == g.HotKey("A") {
				hot++
				break
			}
		}
	}
	frac := float64(hot) / float64(len(txns))
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("hot fraction = %.3f, want ~0.20", frac)
	}
}

func TestDeterministicStream(t *testing.T) {
	g1 := New(Config{Apps: apps(2), Contention: 0.5, Seed: 99})
	g2 := New(Config{Apps: apps(2), Contention: 0.5, Seed: 99})
	for i := 0; i < 200; i++ {
		a := g1.Next("c1", uint64(i))
		b := g2.Next("c1", uint64(i))
		if a.Digest() != b.Digest() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

// TestSeedReproducesTrace is the regression contract behind the
// equivalence and race suites: the same seed must yield the same trace,
// a different seed must not, and the generator must report the seed it
// was built with so a failing trace can be replayed.
func TestSeedReproducesTrace(t *testing.T) {
	cfg := Config{Apps: apps(3), Contention: 0.4, Seed: 1234}
	a := New(cfg).Trace("c1", 300)
	b := New(cfg).Trace("c1", 300)
	for i := range a {
		if a[i].Digest() != b[i].Digest() {
			t.Fatalf("same seed diverged at tx %d", i)
		}
	}
	if got := New(cfg).Seed(); got != 1234 {
		t.Fatalf("Seed() = %d, want 1234", got)
	}
	cfg.Seed = 4321
	c := New(cfg).Trace("c1", 300)
	same := true
	for i := range a {
		if a[i].Digest() != c[i].Digest() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 300-tx trace")
	}
}

func TestGenesisCoversGeneratedAccounts(t *testing.T) {
	g := New(Config{Apps: apps(2), Contention: 0.5, ColdAccountsPerApp: 50, Seed: 7})
	genesis := make(map[types.Key]bool)
	for _, kv := range g.Genesis() {
		genesis[kv.Key] = true
	}
	for i := 0; i < 500; i++ {
		tx := g.Next("c1", uint64(i))
		// The transfer source must always be funded in genesis or be a
		// hot account.
		from := tx.Op.Params[0]
		if !genesis[from] {
			t.Fatalf("tx %d transfers from unfunded account %s", i, from)
		}
	}
}

func TestAbortFractionInjectsFailures(t *testing.T) {
	g := New(Config{Apps: apps(1), AbortFraction: 1.0, Seed: 3})
	tx := g.Next("c1", 1)
	if tx.Op.Params[0] != g.poorKey("A") {
		t.Fatalf("abort txn should draw from the poor account, got %s", tx.Op.Params[0])
	}
	// The poor account must not be funded.
	for _, kv := range g.Genesis() {
		if kv.Key == g.poorKey("A") {
			t.Fatal("poor account must stay unfunded")
		}
	}
}

func TestColdKeysCycleWithoutIntraBlockReuse(t *testing.T) {
	g := New(Config{Apps: apps(1), Contention: 0, ColdAccountsPerApp: 1000, Seed: 5})
	seen := make(map[types.Key]int)
	txns := genBlock(g, 400) // 800 cold accounts used, under the pool size
	for i, tx := range txns {
		for _, k := range tx.Op.Writes {
			if prev, dup := seen[k]; dup {
				t.Fatalf("key %s reused by txns %d and %d", k, prev, i)
			}
			seen[k] = i
		}
	}
}

func TestFinalizeStampsIdentityAndSignature(t *testing.T) {
	g := New(Config{Apps: apps(1), Seed: 1})
	tx := g.Next("client-7", 42)
	Finalize(tx, 12345, func(d []byte) []byte { return []byte("sig") })
	if tx.ID == "" {
		t.Fatal("Finalize must assign an ID")
	}
	if tx.SubmitUnixNano != 12345 {
		t.Fatal("Finalize must stamp the submit time")
	}
	if string(tx.Sig) != "sig" {
		t.Fatal("Finalize must attach the signature")
	}
	// Two different transactions from the same client must get distinct
	// IDs.
	tx2 := g.Next("client-7", 43)
	Finalize(tx2, 12345, func(d []byte) []byte { return []byte("sig") })
	if tx.ID == tx2.ID {
		t.Fatal("IDs must be unique per (client, ts)")
	}
}

// TestAbortHotColdBandsExact pins the band partition in Next: with fault
// injection enabled the hot fraction must be the configured Contention,
// not (1-AbortFraction)·Contention. Before the single-draw fix, the
// chained draws made this test fail with hot ≈ 0.24 instead of 0.30.
func TestAbortHotColdBandsExact(t *testing.T) {
	const (
		n          = 100000
		abortFrac  = 0.2
		contention = 0.3
		tol        = 0.01 // ±1% absolute over 100k draws (σ ≈ 0.0014)
	)
	g := New(Config{Apps: apps(2), Contention: contention, AbortFraction: abortFrac, Seed: 17})
	aborts, hots := 0, 0
	for i := 0; i < n; i++ {
		tx := g.Next("c1", uint64(i))
		from := tx.Op.Params[0]
		switch {
		case from == g.poorKey(tx.App):
			aborts++
		case strings.Contains(from, "/hot"):
			hots++
		}
	}
	if got := float64(aborts) / n; got < abortFrac-tol || got > abortFrac+tol {
		t.Fatalf("abort fraction = %.4f, want %.2f ± %.2f", got, abortFrac, tol)
	}
	if got := float64(hots) / n; got < contention-tol || got > contention+tol {
		t.Fatalf("hot fraction = %.4f, want %.2f ± %.2f (the pre-fix chained draws gave %.2f)",
			got, contention, tol, (1-abortFrac)*contention)
	}
}
