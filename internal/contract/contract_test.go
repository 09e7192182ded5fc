package contract

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

func storeWith(t *testing.T, kvs ...types.KV) *state.KVStore {
	t.Helper()
	s := state.NewKVStore()
	s.Apply(kvs)
	return s
}

func balanceOf(t *testing.T, view state.Reader, key types.Key) int64 {
	t.Helper()
	raw, ok := view.Get(key)
	if !ok {
		t.Fatalf("account %s missing", key)
	}
	v, err := Balance(raw)
	if err != nil {
		t.Fatalf("Balance(%s): %v", key, err)
	}
	return v
}

func apply(s *state.KVStore, writes []types.KV) { s.Apply(writes) }

// openOp builds the operation that opens an account with an initial
// balance.
func openOp(account types.Key, initial int64) types.Operation {
	return types.Operation{
		Method: "open",
		Params: []string{account, strconv.FormatInt(initial, 10)},
		Writes: []types.Key{account},
	}
}

// delOp builds a KV delete operation.
func delOp(key types.Key) types.Operation {
	return types.Operation{
		Method: "del",
		Params: []string{key},
		Writes: []types.Key{key},
	}
}

func TestAccountingTransfer(t *testing.T) {
	s := storeWith(t,
		types.KV{Key: "alice", Val: EncodeBalance(100)},
		types.KV{Key: "bob", Val: EncodeBalance(5)},
	)
	writes, err := NewAccounting().Execute(s, TransferOp("alice", "bob", 30))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	apply(s, writes)
	if got := balanceOf(t, s, "alice"); got != 70 {
		t.Fatalf("alice = %d, want 70", got)
	}
	if got := balanceOf(t, s, "bob"); got != 35 {
		t.Fatalf("bob = %d, want 35", got)
	}
}

func TestAccountingTransferToNewAccount(t *testing.T) {
	s := storeWith(t, types.KV{Key: "alice", Val: EncodeBalance(100)})
	writes, err := NewAccounting().Execute(s, TransferOp("alice", "new", 10))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	apply(s, writes)
	if got := balanceOf(t, s, "new"); got != 10 {
		t.Fatalf("new = %d, want 10", got)
	}
}

func TestAccountingAborts(t *testing.T) {
	s := storeWith(t, types.KV{Key: "alice", Val: EncodeBalance(100)})
	acct := NewAccounting()
	cases := []struct {
		name string
		op   types.Operation
	}{
		{"insufficient funds", TransferOp("alice", "bob", 1000)},
		{"unknown source", TransferOp("ghost", "bob", 1)},
		{"self transfer", TransferOp("alice", "alice", 1)},
		{"zero amount", TransferOp("alice", "bob", 0)},
		{"negative amount", TransferOp("alice", "bob", -5)},
		{"bad method", types.Operation{Method: "mint", Params: []string{"alice"}}},
		{"bad param count", types.Operation{Method: "transfer", Params: []string{"alice"}}},
		{"bad amount format", types.Operation{Method: "transfer", Params: []string{"alice", "bob", "xx"}}},
		{"deposit zero", types.Operation{Method: "deposit", Params: []string{"alice", "0"}}},
		{"open negative", types.Operation{Method: "open", Params: []string{"x", "-1"}}},
	}
	for _, c := range cases {
		if _, err := acct.Execute(s, c.op); !errors.Is(err, ErrAbort) {
			t.Errorf("%s: err = %v, want ErrAbort", c.name, err)
		}
	}
}

func TestAccountingOpenAndDeposit(t *testing.T) {
	s := state.NewKVStore()
	acct := NewAccounting()
	writes, err := acct.Execute(s, openOp("acct", 50))
	if err != nil {
		t.Fatal(err)
	}
	apply(s, writes)
	writes, err = acct.Execute(s, DepositOp("acct", 25))
	if err != nil {
		t.Fatal(err)
	}
	apply(s, writes)
	if got := balanceOf(t, s, "acct"); got != 75 {
		t.Fatalf("balance = %d, want 75", got)
	}
	// Deposit to a non-existent account starts from zero.
	writes, err = acct.Execute(s, DepositOp("fresh", 5))
	if err != nil {
		t.Fatal(err)
	}
	apply(s, writes)
	if got := balanceOf(t, s, "fresh"); got != 5 {
		t.Fatalf("fresh = %d, want 5", got)
	}
}

func TestAccountingDeterminism(t *testing.T) {
	s1 := storeWith(t, types.KV{Key: "a", Val: EncodeBalance(10)})
	s2 := storeWith(t, types.KV{Key: "a", Val: EncodeBalance(10)})
	op := TransferOp("a", "b", 3)
	w1, err1 := NewAccounting().Execute(s1, op)
	w2, err2 := NewAccounting().Execute(s2, op)
	if (err1 == nil) != (err2 == nil) {
		t.Fatal("determinism violated in error outcome")
	}
	r1 := types.TxResult{TxID: "t", Writes: w1}
	r2 := types.TxResult{TxID: "t", Writes: w2}
	if r1.Digest() != r2.Digest() {
		t.Fatal("identical executions must produce matching result digests")
	}
}

func TestTransferOpDeclaredSets(t *testing.T) {
	op := TransferOp("b", "a", 1)
	if len(op.Reads) != 2 || op.Reads[0] != "a" || op.Reads[1] != "b" {
		t.Fatalf("reads = %v, want sorted [a b]", op.Reads)
	}
	if len(op.Writes) != 2 {
		t.Fatalf("writes = %v", op.Writes)
	}
}

func TestKVContract(t *testing.T) {
	s := state.NewKVStore()
	kv := NewKV()
	writes, err := kv.Execute(s, PutOp("k", "hello"))
	if err != nil {
		t.Fatal(err)
	}
	apply(s, writes)
	writes, err = kv.Execute(s, AppendOp("k", " world"))
	if err != nil {
		t.Fatal(err)
	}
	apply(s, writes)
	if v, _ := s.Get("k"); string(v) != "hello world" {
		t.Fatalf("k = %q", v)
	}
	writes, err = kv.Execute(s, delOp("k"))
	if err != nil {
		t.Fatal(err)
	}
	apply(s, writes)
	if _, ok := s.Get("k"); ok {
		t.Fatal("k should be deleted")
	}
	if _, err := kv.Execute(s, types.Operation{Method: "nope"}); !errors.Is(err, ErrAbort) {
		t.Fatal("unknown method must abort")
	}
}

func TestSupplyChainLifecycle(t *testing.T) {
	s := state.NewKVStore()
	sc := NewSupplyChain()
	steps := []struct {
		op      types.Operation
		wantErr bool
		wantSub string
	}{
		{CreateItemOp("item1", "producer"), false, "producer|created"},
		{CreateItemOp("item1", "producer"), true, ""}, // duplicate create
		{ShipOp("item1", "producer", "shipper"), false, "shipper|in-transit"},
		{ShipOp("item1", "producer", "shipper"), true, ""}, // wrong holder
		{ReceiveOp("item1", "warehouse"), true, ""},        // addressed to shipper
		{ReceiveOp("item1", "shipper"), false, "shipper|delivered"},
		{ReceiveOp("item1", "shipper"), true, ""}, // already delivered
	}
	for i, step := range steps {
		writes, err := sc.Execute(s, step.op)
		if step.wantErr {
			if !errors.Is(err, ErrAbort) {
				t.Fatalf("step %d: err = %v, want ErrAbort", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		apply(s, writes)
		raw, _ := s.Get("item1")
		if !strings.HasPrefix(string(raw), step.wantSub) {
			t.Fatalf("step %d: item = %q, want prefix %q", i, raw, step.wantSub)
		}
	}
	// Hop count accumulated across the three successful operations.
	raw, _ := s.Get("item1")
	parts := strings.Split(string(raw), "|")
	if hops, _ := strconv.Atoi(parts[2]); hops != 3 {
		t.Fatalf("hops = %d, want 3", hops)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Lookup("app1"); ok {
		t.Fatal("empty registry should miss")
	}
	r.Install("app1", NewAccounting())
	if _, ok := r.Lookup("app1"); !ok {
		t.Fatal("installed contract should be found")
	}
	if apps := r.Apps(); len(apps) != 1 || apps[0] != "app1" {
		t.Fatalf("Apps = %v", apps)
	}
	s := storeWith(t, types.KV{Key: "a", Val: EncodeBalance(10)})
	if _, err := r.Execute("app1", s, TransferOp("a", "b", 1)); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if _, err := r.Execute("missing", s, TransferOp("a", "b", 1)); err == nil {
		t.Fatal("missing app must error")
	}
}

func TestCostModelSleep(t *testing.T) {
	model := CostModel{Cost: 20 * time.Millisecond}
	start := time.Now()
	model.Apply()
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("sleep cost too short: %v", elapsed)
	}
}

func TestCostModelSpin(t *testing.T) {
	model := CostModel{Cost: 5 * time.Millisecond, SpinFraction: 1.0}
	start := time.Now()
	model.Apply()
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("spin cost too short: %v", elapsed)
	}
}

func TestWithCost(t *testing.T) {
	s := storeWith(t, types.KV{Key: "a", Val: EncodeBalance(10)})
	wrapped := WithCost(NewAccounting(), CostModel{Cost: 10 * time.Millisecond})
	start := time.Now()
	if _, err := wrapped.Execute(s, TransferOp("a", "b", 1)); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 8*time.Millisecond {
		t.Fatal("cost wrapper did not delay execution")
	}
	// Zero cost returns the inner contract unchanged.
	if got := WithCost(NewAccounting(), CostModel{}); got == nil {
		t.Fatal("zero-cost wrapper must return a contract")
	}
}

func TestBalanceCodec(t *testing.T) {
	for _, v := range []int64{0, 1, -7, 1 << 40} {
		got, err := Balance(EncodeBalance(v))
		if err != nil || got != v {
			t.Fatalf("roundtrip %d: got %d err %v", v, got, err)
		}
	}
	if _, err := Balance([]byte("garbage")); err == nil {
		t.Fatal("garbage balance must error")
	}
}

// TestRegistryAbortsUndeclaredWrite: the registry enforces declared write
// sets — a result writing outside op.Writes aborts with ErrAbort naming
// the key, and a result inside them passes untouched.
func TestRegistryAbortsUndeclaredWrite(t *testing.T) {
	r := NewRegistry()
	r.Install("app", NewKV())
	op := PutOp("k", "v")
	if _, err := r.Execute("app", state.NewKVStore(), op); err != nil {
		t.Fatalf("declared write aborted: %v", err)
	}
	op.Writes = []types.Key{"other"}
	_, err := r.Execute("app", state.NewKVStore(), op)
	if !errors.Is(err, ErrAbort) || !strings.Contains(err.Error(), `undeclared key "k"`) {
		t.Fatalf("undeclared write: err = %v, want an abort naming the key", err)
	}
}
