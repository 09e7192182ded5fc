package contract

import (
	"fmt"
	"strconv"

	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// Accounting is the paper's evaluation application: every client owns
// accounts, each a balance, and transactions transfer assets between
// accounts. "A simple transaction T initiated by client c might transfer x
// units from account 1001 to account 1002. The transaction is valid if c
// is the owner of account 1001 and the account balance is at least x."
// Ownership is enforced by the orderers' access control in this system;
// the contract enforces balance sufficiency.
//
// Balances are stored as decimal strings so ledgers and state dumps are
// human-readable.
//
// Methods:
//
//	"open"     params: account, initialBalance   reads: -        writes: account
//	"deposit"  params: account, amount           reads: account  writes: account
//	"transfer" params: from, to, amount          reads: from,to  writes: from,to
type Accounting struct{}

// NewAccounting returns the accounting contract.
func NewAccounting() Accounting { return Accounting{} }

// Execute dispatches the accounting methods.
func (Accounting) Execute(view state.Reader, op types.Operation) ([]types.KV, error) {
	switch op.Method {
	case "open":
		return accountingOpen(op.Params)
	case "deposit":
		return accountingDeposit(view, op.Params)
	case "transfer":
		return accountingTransfer(view, op.Params)
	default:
		return nil, fmt.Errorf("%w: unknown accounting method %q", ErrAbort, op.Method)
	}
}

var _ Contract = Accounting{}

// Balance decodes a stored account balance.
func Balance(raw []byte) (int64, error) {
	v, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("contract: corrupt balance %q: %w", raw, err)
	}
	return v, nil
}

// EncodeBalance encodes an account balance for storage.
func EncodeBalance(v int64) []byte {
	return strconv.AppendInt(nil, v, 10)
}

func accountingOpen(params []string) ([]types.KV, error) {
	if len(params) != 2 {
		return nil, fmt.Errorf("%w: open wants [account, balance], got %d params", ErrAbort, len(params))
	}
	initial, err := strconv.ParseInt(params[1], 10, 64)
	if err != nil || initial < 0 {
		return nil, fmt.Errorf("%w: open: bad initial balance %q", ErrAbort, params[1])
	}
	return []types.KV{{Key: params[0], Val: EncodeBalance(initial)}}, nil
}

func accountingDeposit(view state.Reader, params []string) ([]types.KV, error) {
	if len(params) != 2 {
		return nil, fmt.Errorf("%w: deposit wants [account, amount], got %d params", ErrAbort, len(params))
	}
	amount, err := strconv.ParseInt(params[1], 10, 64)
	if err != nil || amount <= 0 {
		return nil, fmt.Errorf("%w: deposit: bad amount %q", ErrAbort, params[1])
	}
	balance := int64(0)
	if raw, ok := view.Get(params[0]); ok {
		if balance, err = Balance(raw); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrAbort, err)
		}
	}
	return []types.KV{{Key: params[0], Val: EncodeBalance(balance + amount)}}, nil
}

func accountingTransfer(view state.Reader, params []string) ([]types.KV, error) {
	if len(params) != 3 {
		return nil, fmt.Errorf("%w: transfer wants [from, to, amount], got %d params", ErrAbort, len(params))
	}
	from, to := params[0], params[1]
	amount, err := strconv.ParseInt(params[2], 10, 64)
	if err != nil || amount <= 0 {
		return nil, fmt.Errorf("%w: transfer: bad amount %q", ErrAbort, params[2])
	}
	if from == to {
		return nil, fmt.Errorf("%w: transfer: from == to (%s)", ErrAbort, from)
	}
	rawFrom, ok := view.Get(from)
	if !ok {
		return nil, fmt.Errorf("%w: transfer: unknown account %s", ErrAbort, from)
	}
	fromBal, err := Balance(rawFrom)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAbort, err)
	}
	if fromBal < amount {
		return nil, fmt.Errorf("%w: transfer: insufficient funds in %s (%d < %d)",
			ErrAbort, from, fromBal, amount)
	}
	toBal := int64(0)
	if rawTo, ok := view.Get(to); ok {
		if toBal, err = Balance(rawTo); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrAbort, err)
		}
	}
	return []types.KV{
		{Key: from, Val: EncodeBalance(fromBal - amount)},
		{Key: to, Val: EncodeBalance(toBal + amount)},
	}, nil
}

// TransferOp builds the operation for a transfer, declaring the read and
// write sets the orderers use for dependency-graph generation. Both
// accounts appear in both sets: the source is read for the balance check
// and written with the debit; the destination is read for its balance and
// written with the credit.
func TransferOp(from, to types.Key, amount int64) types.Operation {
	return types.Operation{
		Method: "transfer",
		Params: []string{from, to, strconv.FormatInt(amount, 10)},
		Reads:  types.NormalizeKeys([]types.Key{from, to}),
		Writes: types.NormalizeKeys([]types.Key{from, to}),
	}
}

// DepositOp builds the operation that credits an account.
func DepositOp(account types.Key, amount int64) types.Operation {
	return types.Operation{
		Method: "deposit",
		Params: []string{account, strconv.FormatInt(amount, 10)},
		Reads:  []types.Key{account},
		Writes: []types.Key{account},
	}
}
