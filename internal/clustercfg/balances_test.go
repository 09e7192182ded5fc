package clustercfg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// balanceSeeds covers the shapes where a hand-written decoder and
// encoding/json could part ways.
var balanceSeeds = []string{
	`{}`,
	`null`,
	` null `,
	`{"app1/alice": 1000, "app2/bob": -5}`,
	`{"ab": 1, "\"q\"": 2, "tab\t": 3, "sl\/ash": 4}`,
	`{"a": 1, "a": 2}`,
	`{"a": -0}`,
	`{"a": 01}`,
	`{"a": -01}`,
	`{"a": 1.0}`,
	`{"a": 1.5}`,
	`{"a": 1e3}`,
	`{"a": 1E3}`,
	`{"a": 9223372036854775807, "b": -9223372036854775808}`,
	`{"a": 9223372036854775808}`,
	`{"a": -9223372036854775809}`,
	`{"a": 99999999999999999999999}`,
	`{"a": null}`,
	`{"a": "5"}`,
	`{"a": true}`,
	`{"a": {}}`,
	`{"a": [1]}`,
	" \t\r\n{ \"a\" :\r\n1 ,\t\"b\":2 } \n",
	"{\"\xff\xfe\": 1}",
	"{\"caf\xc3\xa9\": 1}",
	`{"a": 1,}`,
	`{"a" 1}`,
	`{"a": 1} {}`,
	`{"a": -}`,
	`{"a": +1}`,
	`{"a\x": 1}`,
	"{\"a\nb\": 1}",
	`[]`,
	`"x"`,
	`{`,
	``,
}

// FuzzGenesisBalances holds Balances.UnmarshalJSON to encoding/json's
// map[string]int64 decode: whatever the reference refuses is refused,
// and whatever is accepted decodes to the reference's map.
func FuzzGenesisBalances(f *testing.F) {
	for _, s := range balanceSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref map[string]int64
		refErr := json.Unmarshal(data, &ref)
		var got Balances
		err := got.UnmarshalJSON(data)
		if err != nil {
			return
		}
		if refErr != nil {
			t.Fatalf("accepted %q, which encoding/json refuses: %v", data, refErr)
		}
		if !reflect.DeepEqual(map[string]int64(got), ref) {
			t.Fatalf("%q decoded to %v, encoding/json to %v", data, got, ref)
		}
	})
}

// TestBalancesDecode pins which well-formed inputs the strict decoder
// accepts (every integer form encoding/json accepts) and which it
// refuses beyond the reference (null balances).
func TestBalancesDecode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[string]int64 // nil with ok false: refused
		ok   bool
	}{
		{`{}`, map[string]int64{}, true},
		{`null`, nil, true},
		{`{"ab": 1, "\"q\"": 2}`, map[string]int64{"ab": 1, `"q"`: 2}, true},
		{`{"a": 1, "a": 2}`, map[string]int64{"a": 2}, true},
		{`{"a": -0, "b": -9223372036854775808}`, map[string]int64{"a": 0, "b": -1 << 63}, true},
		{" {\n\"a\" :\t7 } ", map[string]int64{"a": 7}, true},
		{"{\"\xff\": 1}", map[string]int64{"�": 1}, true},
		{`{"a": null}`, nil, false},
		{`{"a": 1e3}`, nil, false},
		{`{"a": 9223372036854775808}`, nil, false},
	} {
		var got Balances
		err := got.UnmarshalJSON([]byte(tc.in))
		if (err == nil) != tc.ok {
			t.Errorf("%q: err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(map[string]int64(got), tc.want) {
			t.Errorf("%q = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Load's decoder finds the genesis member as encoding/json would,
	// case-insensitively, and Config.genesis holds it to the same rules.
	var cfg Config
	if err := decodeConfig([]byte(`{"Genesis": {"a": 1}}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if g, err := cfg.genesis(); err != nil || g["a"] != 1 {
		t.Fatalf("Genesis member: %v, %v", err, g)
	}
	cfg = Config{}
	if err := decodeConfig([]byte(`{"genesis": {"a": 1e3}}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.genesis(); err == nil {
		t.Fatal("a non-integer balance in a config must be refused")
	}
}

// FuzzDecodeConfig holds Load's decoder, with the genesis decode an
// executor adds, to the json.Decoder with DisallowUnknownFields it
// replaced: whatever that refuses (trailing data included) is refused,
// and whatever is accepted decodes to the same Config. The seeds cover
// the ways a member can name the genesis field.
func FuzzDecodeConfig(f *testing.F) {
	for _, s := range []string{
		valid,
		valid + ` {}`,
		valid + " \n",
		`{"orderers": {"o1": "x"}, "executors": {"e1": "y"}, "execWorkers": 8}`,
		`{"GENESIS": {"a": 1}, "orderers": {"o1": "x"}}`,
		`{"genesis": {"a": 1}, "Genesiſ": {"b": 2}}`,
		`{"genesis": {"a": 1}, "genesis": {"b": 2}, "genesis": null}`,
		`{"genesis": null, "genesis": {"a": 1}}`,
		`{"apps": {"genesis": ["e1"]}, "genesis": {}}`,
		`{"genesis": {"a": 1} "orderers": {}}`,
		`{"genesis": {"a": 1},}`,
		`{"genesis": "x"}`,
		`{"genesis": {"a": 1e2}}`,
		`{"blockTxns": 1e2, "genesis": {"a": 1}}`,
		`{"blockTxns": 64, "blockIntervalMs": 20, "crypto": true, "dataDir": "/d"}`,
		`{"orderers": {"o1": "x"}, "orderers": {"o2": "y"}}`,
		`{}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref Config
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		refErr := dec.Decode(&ref)
		if refErr == nil {
			if _, err := dec.Token(); err != io.EOF {
				refErr = fmt.Errorf("data after the top-level object: %v", err)
			}
		}
		var got Config
		if err := decodeConfig(data, &got); err != nil {
			return
		}
		genesis, err := got.genesis()
		if err != nil {
			return
		}
		got.Genesis, got.genesisRaw = genesis, nil
		if refErr != nil {
			t.Fatalf("accepted %q, which encoding/json refuses: %v", data, refErr)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%q decoded to %+v, encoding/json to %+v", data, got, ref)
		}
	})
}
