package execution

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"parblockchain/internal/types"
)

// oracleTally is the map-based vote count the executor used before the
// flat tally — two maps per transaction — kept as the model the tally
// must match.
type oracleTally struct {
	votes map[types.Hash]*voteRec
	voted map[types.NodeID]bool
}

func (o *oracleTally) add(r types.TxResult, voter types.NodeID, tau int) *types.TxResult {
	if o.voted == nil {
		o.voted = make(map[types.NodeID]bool, 2)
		o.votes = make(map[types.Hash]*voteRec, 1)
	}
	if o.voted[voter] {
		return nil
	}
	o.voted[voter] = true
	d := r.Digest()
	rec, ok := o.votes[d]
	if !ok {
		rec = &voteRec{result: r}
		o.votes[d] = rec
	}
	rec.count++
	if rec.count >= tau {
		return &rec.result
	}
	return nil
}

func oracleIsAgentOf(agentsOf map[types.AppID][]types.NodeID, app types.AppID, node types.NodeID) bool {
	for _, agent := range agentsOf[app] {
		if agent == node {
			return true
		}
	}
	return false
}

type tallyCommit struct {
	tx     int
	result types.TxResult
}

// TestVoteTallyModel drives the flat tally (with the executor's own
// voter-bit mapping) and the map-based oracle through the same random
// vote streams — duplicate voters, non-agents, the node's own votes with
// and without an AgentsOf listing, echoes of its own COMMITs, divergent
// results, late votes after commit, tau from 1 to 3 — and requires the
// same commits, with the same results, in the same order.
func TestVoteTallyModel(t *testing.T) {
	pool := []types.NodeID{"e1", "e2", "e3", "e4", "e5"}
	const self = types.NodeID("e1")
	var tauCommits, divergentCommits int
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nTx := 1 + rng.Intn(4)
		agentsOf := make(map[types.AppID][]types.NodeID)
		apps := make([]types.AppID, nTx)
		taus := make([]int, nTx)
		variants := make([][]types.TxResult, nTx)
		for k := 0; k < nTx; k++ {
			apps[k] = types.AppID(fmt.Sprintf("app%d", k))
			perm := rng.Perm(len(pool))
			for _, p := range perm[:1+rng.Intn(3)] {
				agentsOf[apps[k]] = append(agentsOf[apps[k]], pool[p])
			}
			taus[k] = 1 + rng.Intn(3)
			id := types.TxID(fmt.Sprintf("tx%d", k))
			variants[k] = []types.TxResult{
				{TxID: id, Index: k, Writes: []types.KV{{Key: "k", Val: []byte("honest")}}},
				{TxID: id, Index: k, Writes: []types.KV{{Key: "k", Val: []byte("forged")}}},
				{TxID: id, Index: k, Aborted: true, AbortReason: "diverged"},
			}
		}
		e := &Executor{cfg: Config{ID: self, AgentsOf: agentsOf}}

		tallies := make([]voteTally, nTx)
		oracles := make([]oracleTally, nTx)
		doneT := make([]bool, nTx)
		doneO := make([]bool, nTx)
		diverged := make([]bool, nTx)
		var gotT, gotO []tallyCommit
		for v, n := 0, 10+rng.Intn(30); v < n; v++ {
			k := rng.Intn(nTx)
			voter := pool[rng.Intn(len(pool))]
			own := voter == self && rng.Intn(2) == 0 // own vote, not an echo
			variant := 0
			if rng.Intn(4) == 0 {
				variant = 1 + rng.Intn(2)
				diverged[k] = true
			}
			r := variants[k][variant]

			if !doneT[k] {
				var bit uint
				eligible := true
				if own {
					bit = e.ownBit(apps[k])
				} else if i := e.agentIndex(apps[k], voter); i >= 0 {
					bit = uint(i)
				} else {
					eligible = false
				}
				if eligible {
					rr := r
					counted, won, d := tallies[k].add(bit, &rr, taus[k])
					switch {
					case won != nil:
						gotT = append(gotT, tallyCommit{k, *won})
						doneT[k] = true
						tallies[k] = voteTally{}
					case counted && d != r.Digest():
						t.Fatalf("seed %d: a counted vote below tau reported digest %s, want %s",
							seed, d, r.Digest())
					}
				}
			}
			if !doneO[k] && (own || oracleIsAgentOf(agentsOf, apps[k], voter)) {
				if won := oracles[k].add(r, voter, taus[k]); won != nil {
					gotO = append(gotO, tallyCommit{k, *won})
					doneO[k] = true
					if taus[k] > 1 {
						tauCommits++
					}
					if diverged[k] {
						divergentCommits++
					}
				}
			}
		}
		if !reflect.DeepEqual(gotT, gotO) {
			t.Fatalf("seed %d: tally commits %+v, oracle commits %+v", seed, gotT, gotO)
		}
	}
	if tauCommits == 0 || divergentCommits == 0 {
		t.Fatalf("streams never exercised tau > 1 (%d) or divergent votes (%d)", tauCommits, divergentCommits)
	}
}

// A below-tau vote that matches the leading result — every vote an honest
// cluster casts — allocates nothing.
func TestVoteTallyMatchingVoteAllocatesNothing(t *testing.T) {
	r := types.TxResult{TxID: "t", Index: 0, Writes: []types.KV{{Key: "k", Val: []byte("v")}}}
	var lead voteTally
	lead.add(0, &r, 3)
	n := testing.AllocsPerRun(100, func() {
		tally := lead
		if counted, won, _ := tally.add(1, &r, 3); !counted || won != nil {
			t.Fatal("second matching vote of three must count without committing")
		}
	})
	if n != 0 {
		t.Fatalf("a matching below-tau vote allocates %v times, want 0", n)
	}
}

// An application with more agents than a tally has bits is rejected by
// name, both by CheckAgents and by New.
func TestVoteTallyRejectsTooManyAgents(t *testing.T) {
	agents := make([]types.NodeID, maxAgents+1)
	for i := range agents {
		agents[i] = types.NodeID(fmt.Sprintf("e%d", i))
	}
	if err := CheckAgents(map[types.AppID][]types.NodeID{"wide": agents[:maxAgents]}); err != nil {
		t.Fatalf("%d agents rejected: %v", maxAgents, err)
	}
	big := map[types.AppID][]types.NodeID{"small": agents[:1], "wide": agents}
	if err := CheckAgents(big); err == nil || !strings.Contains(err.Error(), "wide") {
		t.Fatalf("CheckAgents = %v, want an error naming app wide", err)
	}
	defer func() {
		err, _ := recover().(error)
		if err == nil || !strings.Contains(err.Error(), "wide") {
			t.Fatalf("New panicked with %v, want an error naming app wide", err)
		}
	}()
	New(Config{ID: "e0", AgentsOf: big})
}
