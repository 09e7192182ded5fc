package xov

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"parblockchain/internal/types"
)

// FuzzUnmarshalEndorsedTx holds the XOV wire codec to the same contract
// as the types codecs: arbitrary input errors rather than panicking, and
// whatever decodes re-encodes to exactly its input.
func FuzzUnmarshalEndorsedTx(f *testing.F) {
	etx := &EndorsedTx{
		Tx: &types.Transaction{
			ID: "t1", App: "app1", Client: "c1", ClientTS: 3,
			Op: types.Operation{Method: "transfer", Params: []string{"a", "b", "1"},
				Reads: []string{"a", "b"}, Writes: []string{"a", "b"}},
			Sig: []byte{1},
		},
		ReadVers:  []KeyVer{{Key: "a", Ver: 2}, {Key: "b", Ver: 1}},
		Writes:    []types.KV{{Key: "a", Val: []byte("9")}},
		Endorsers: []types.NodeID{"p1"},
		Sigs:      [][]byte{{7}},
	}
	f.Add(etx.Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := UnmarshalEndorsedTx(data)
		if err != nil {
			return
		}
		if len(e.Endorsers) != len(e.Sigs) {
			t.Fatal("decoder admitted misaligned endorsement evidence")
		}
		if !bytes.Equal(e.Marshal(), data) {
			t.Fatal("an accepted EndorsedTx does not re-encode to its input")
		}
	})
}

// TestUnmarshalEndorsedTxRejectsNonCanonical: a valid envelope with one
// trailing byte, and one whose SimAborted flag byte is neither 0 nor 1,
// are both malformed encodings, not aliases of a valid one.
func TestUnmarshalEndorsedTxRejectsNonCanonical(t *testing.T) {
	etx := &EndorsedTx{
		Tx:     &types.Transaction{ID: "t1", App: "app1", Client: "c1", ClientTS: 1},
		Writes: []types.KV{{Key: "a", Val: []byte("1")}},
	}
	valid := etx.Marshal()
	etx.SimAborted = true
	aborted := etx.Marshal()
	at := -1
	for i := range valid {
		if valid[i] != aborted[i] {
			at = i
			break
		}
	}
	if at < 0 || len(valid) != len(aborted) {
		t.Fatal("SimAborted does not change exactly one byte of the encoding")
	}
	badFlag := slices.Clone(valid)
	badFlag[at] = 7
	for name, data := range map[string][]byte{
		"trailing byte": append(slices.Clone(valid), 0),
		"flag byte 7":   badFlag,
	} {
		if _, err := UnmarshalEndorsedTx(data); !errors.Is(err, types.ErrCodec) {
			t.Errorf("%s: err = %v, want ErrCodec", name, err)
		}
	}
}
