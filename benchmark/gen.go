package main

import (
	"fmt"
	"math/rand"

	"parblockchain/internal/contract"
	"parblockchain/internal/types"
)

// initialBalance funds every account far beyond what a run can drain, so
// no transfer aborts: an abort in a run is a failure, never an input.
const initialBalance int64 = 1_000_000_000_000

// generator produces the benchmark's transaction stream from a seed. It
// is the benchmark's own (internal/workload belongs to the tests and may
// change under later PRs) and is used from one goroutine only.
//
// Cold transfers walk a seeded permutation of each application's account
// pool two accounts at a time, so an application's next 4096 cold
// transfers touch disjoint accounts: a 0% workload really has no
// conflicts inside the executors' pipeline window. Hot transfers debit
// the hot account and credit the next cold account, so they conflict
// with each other only through the hot record.
type generator struct {
	spec spec
	rng  *rand.Rand
	apps []types.AppID
	perm [][]int32 // per app: seeded order in which cold accounts are handed out
	next []int     // per app: cursor into perm

	hotSlot [100]bool // which positions of the current 100-tx window are hot
	pos     int       // position inside the window
	coldApp int       // round-robin cursor for cold transfers
	hotApp  int       // round-robin cursor for cross-app hot transfers
}

func appIDs() []types.AppID {
	apps := make([]types.AppID, numApps)
	for i := range apps {
		apps[i] = types.AppID(fmt.Sprintf("app%d", i+1))
	}
	return apps
}

func newGenerator(s spec, seed int64) *generator {
	g := &generator{
		spec: s,
		rng:  rand.New(rand.NewSource(seed)),
		apps: appIDs(),
		next: make([]int, numApps),
	}
	for range g.apps {
		p := g.rng.Perm(coldAccounts)
		perm := make([]int32, len(p))
		for i, v := range p {
			perm[i] = int32(v)
		}
		g.perm = append(g.perm, perm)
	}
	g.drawWindow()
	return g
}

// drawWindow picks exactly hotPer100 hot positions for the next 100
// transactions, so the hot share is exact over every whole window and
// random inside it.
func (g *generator) drawWindow() {
	g.hotSlot = [100]bool{}
	for _, p := range g.rng.Perm(100)[:g.spec.hotPer100] {
		g.hotSlot[p] = true
	}
	g.pos = 0
}

func coldKey(app types.AppID, i int32) types.Key { return fmt.Sprintf("%s/a%05d", app, i) }

// hotKey is the contended record: one per deployment, owned by app1 or
// shared between the applications.
func (g *generator) hotKey() types.Key {
	if g.spec.crossApp {
		return "shared/hot"
	}
	return string(g.apps[0]) + "/hot"
}

func (g *generator) coldAccount(app int) types.Key {
	i := g.perm[app][g.next[app]]
	g.next[app] = (g.next[app] + 1) % coldAccounts
	return coldKey(g.apps[app], i)
}

// nextOp returns the application and operation of the next transaction
// and whether it is a hot (conflicting) one.
func (g *generator) nextOp() (types.AppID, types.Operation, bool) {
	if g.pos == len(g.hotSlot) {
		g.drawWindow()
	}
	hot := g.hotSlot[g.pos]
	g.pos++
	amount := 1 + g.rng.Int63n(9)
	if hot {
		app := 0
		if g.spec.crossApp {
			app = g.hotApp % numApps
			g.hotApp++
		}
		return g.apps[app], contract.TransferOp(g.hotKey(), g.coldAccount(app), amount), true
	}
	app := g.coldApp % numApps
	g.coldApp++
	from := g.coldAccount(app)
	return g.apps[app], contract.TransferOp(from, g.coldAccount(app), amount), false
}

// genesisBalances lists every funded account: the cold pools and the hot
// record. It does not depend on the seed.
func genesisBalances(s spec) map[string]int64 {
	g := generator{spec: s, apps: appIDs()}
	out := make(map[string]int64, numApps*coldAccounts+1)
	for _, app := range g.apps {
		for i := int32(0); i < coldAccounts; i++ {
			out[coldKey(app, i)] = initialBalance
		}
	}
	out[g.hotKey()] = initialBalance
	return out
}
