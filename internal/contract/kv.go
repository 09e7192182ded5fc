package contract

import (
	"fmt"

	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// KV is a generic key-value contract used by examples and tests: it puts,
// appends to, and deletes records. Because its read/write sets are fully
// determined by the parameters, it is convenient for constructing blocks
// with arbitrary conflict patterns.
//
// Methods:
//
//	"put"    params: key, value  reads: -    writes: key
//	"append" params: key, value  reads: key  writes: key
//	"del"    params: key         reads: -    writes: key
type KV struct{}

// NewKV returns the key-value contract.
func NewKV() KV { return KV{} }

// Execute dispatches the key-value methods.
func (KV) Execute(view state.Reader, op types.Operation) ([]types.KV, error) {
	switch op.Method {
	case "put":
		if len(op.Params) != 2 {
			return nil, fmt.Errorf("%w: put wants [key, value]", ErrAbort)
		}
		return []types.KV{{Key: op.Params[0], Val: []byte(op.Params[1])}}, nil
	case "append":
		if len(op.Params) != 2 {
			return nil, fmt.Errorf("%w: append wants [key, value]", ErrAbort)
		}
		prev, _ := view.Get(op.Params[0])
		val := make([]byte, 0, len(prev)+len(op.Params[1]))
		val = append(val, prev...)
		val = append(val, op.Params[1]...)
		return []types.KV{{Key: op.Params[0], Val: val}}, nil
	case "del":
		if len(op.Params) != 1 {
			return nil, fmt.Errorf("%w: del wants [key]", ErrAbort)
		}
		return []types.KV{{Key: op.Params[0], Val: nil}}, nil
	default:
		return nil, fmt.Errorf("%w: unknown kv method %q", ErrAbort, op.Method)
	}
}

var _ Contract = KV{}

// PutOp builds a blind-write put operation.
func PutOp(key types.Key, value string) types.Operation {
	return types.Operation{
		Method: "put",
		Params: []string{key, value},
		Writes: []types.Key{key},
	}
}

// AppendOp builds a read-modify-write append operation.
func AppendOp(key types.Key, value string) types.Operation {
	return types.Operation{
		Method: "append",
		Params: []string{key, value},
		Reads:  []types.Key{key},
		Writes: []types.Key{key},
	}
}
