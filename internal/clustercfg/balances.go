package clustercfg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Balances is the genesis table: account key to initial balance. It
// marshals as the plain JSON object encoding/json writes for a
// map[string]int64, and unmarshals that object in one pass instead of
// encoding/json's reflective map decode, which dominated a node's
// start-up on a table of tens of thousands of accounts.
//
// Decoding is strict: every value must be a JSON integer that fits an
// int64 (no fraction, exponent, string or null), and whatever
// encoding/json refuses for a map[string]int64 is refused too. Entries
// are added to an existing map and a duplicate key keeps its last value,
// as encoding/json does.
type Balances map[string]int64

// UnmarshalJSON decodes a balances object into b; JSON null sets b to
// nil. Keys holding an escape or a non-ASCII byte are unquoted by
// encoding/json, so they decode exactly as they always did.
func (b *Balances) UnmarshalJSON(data []byte) error {
	p := jsonParser{data: data}
	if err := p.balances(b); err != nil {
		return err
	}
	p.ws()
	if p.pos != len(p.data) {
		return errors.New("genesis balances: data after the object")
	}
	return nil
}

// genesisKey is Config.Genesis's JSON name. encoding/json matches member
// names to fields case-insensitively, and so does decodeConfig.
const genesisKey = "genesis"

// decodeConfig decodes a cluster file into cfg, refusing what a
// json.Decoder with DisallowUnknownFields refuses, and data after the
// top-level object. The genesis member, nearly all of a large file's
// bytes, is only stepped over and kept as bytes in cfg.genesisRaw, for
// Config.genesis to decode with the balances parser: an orderer never
// pays for the table. Every other member is handed to encoding/json as
// one object.
func decodeConfig(raw []byte, cfg *Config) error {
	p := jsonParser{data: raw}
	if !p.next('{') {
		return errors.New("want a JSON object")
	}
	rest := []byte{'{'}
	if !p.next('}') {
		for {
			p.ws()
			keyStart := p.pos
			key, err := p.key()
			if err != nil {
				return err
			}
			keyEnd := p.pos
			if !p.next(':') {
				return errObjectSyntax
			}
			if strings.EqualFold(key, genesisKey) {
				raw, err := p.skipBalances()
				if err != nil {
					return err
				}
				cfg.genesisRaw = append(cfg.genesisRaw, raw)
			} else {
				p.ws()
				dec := json.NewDecoder(bytes.NewReader(raw[p.pos:]))
				var val json.RawMessage
				if err := dec.Decode(&val); err != nil {
					return err
				}
				p.pos += int(dec.InputOffset())
				if len(rest) > 1 {
					rest = append(rest, ',')
				}
				rest = append(append(append(rest, raw[keyStart:keyEnd]...), ':'), val...)
			}
			if p.next(',') {
				continue
			}
			if p.next('}') {
				break
			}
			return errObjectSyntax
		}
	}
	p.ws()
	if p.pos != len(p.data) {
		return errors.New("data after the top-level object")
	}
	dec := json.NewDecoder(bytes.NewReader(append(rest, '}')))
	dec.DisallowUnknownFields()
	return dec.Decode(cfg)
}

// jsonParser reads the flat JSON a cluster file is made of: one object
// of members, and balances objects of integers.
type jsonParser struct {
	data []byte
	pos  int
}

var errObjectSyntax = errors.New("malformed object")

// ws skips JSON whitespace.
func (p *jsonParser) ws() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c, reporting whether it was there.
func (p *jsonParser) next(c byte) bool {
	p.ws()
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// balances reads null, which sets *dst to nil, or an object of integer
// balances, which it adds to *dst.
func (p *jsonParser) balances(dst *Balances) error {
	p.ws()
	if bytes.HasPrefix(p.data[p.pos:], []byte("null")) {
		p.pos += len("null")
		*dst = nil
		return nil
	}
	if !p.next('{') {
		return errors.New("genesis balances: want an object of integer balances")
	}
	if *dst == nil {
		// Every entry holds a colon, so the colon count bounds the entry
		// count: the map is sized once.
		*dst = make(Balances, bytes.Count(p.data[p.pos:], []byte{':'}))
	}
	if p.next('}') {
		return nil
	}
	for {
		key, err := p.key()
		if err != nil {
			return fmt.Errorf("genesis balances: %w", err)
		}
		if !p.next(':') {
			return fmt.Errorf("genesis balances: %w", errObjectSyntax)
		}
		val, err := p.int()
		if err != nil {
			return fmt.Errorf("genesis balances: account %q: %w", key, err)
		}
		(*dst)[key] = val
		if p.next(',') {
			continue
		}
		if p.next('}') {
			return nil
		}
		return fmt.Errorf("genesis balances: %w", errObjectSyntax)
	}
}

// skipBalances steps over a balances value, null or an object, and
// returns its bytes. It reads no further than the bracket that closes
// the object, skipping strings; the balances parser checks the rest.
func (p *jsonParser) skipBalances() ([]byte, error) {
	p.ws()
	start := p.pos
	if bytes.HasPrefix(p.data[p.pos:], []byte("null")) {
		p.pos += len("null")
		return p.data[start:p.pos], nil
	}
	if p.pos >= len(p.data) || p.data[p.pos] != '{' {
		return nil, errors.New("genesis balances: want an object of integer balances")
	}
	depth := 0
	for i := p.pos; i < len(p.data); i++ {
		switch p.data[i] {
		case '"':
			for i++; i < len(p.data) && p.data[i] != '"'; i++ {
				if p.data[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				p.pos = i + 1
				return p.data[start:p.pos], nil
			}
		}
	}
	return nil, errors.New("genesis balances: unterminated object")
}

// key reads one JSON string. A plain ASCII key is sliced out directly;
// anything else goes through encoding/json, which validates escapes and
// replaces invalid UTF-8 as it always did.
func (p *jsonParser) key() (string, error) {
	p.ws()
	if p.pos >= len(p.data) || p.data[p.pos] != '"' {
		return "", errObjectSyntax
	}
	start := p.pos
	plain := true
	for i := start + 1; i < len(p.data); i++ {
		switch c := p.data[i]; {
		case c == '"':
			p.pos = i + 1
			if plain {
				return string(p.data[start+1 : i]), nil
			}
			var s string
			if err := json.Unmarshal(p.data[start:p.pos], &s); err != nil {
				return "", err
			}
			return s, nil
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot end the string
		case c < 0x20:
			return "", errors.New("control character in a key")
		case c >= 0x80:
			plain = false
		}
	}
	return "", errors.New("unterminated key")
}

// int reads one JSON number that must be an integer within int64, the
// numbers strconv.ParseInt accepts that are also valid JSON.
func (p *jsonParser) int() (int64, error) {
	p.ws()
	neg := p.pos < len(p.data) && p.data[p.pos] == '-'
	if neg {
		p.pos++
	}
	start := p.pos
	var mag uint64
	for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
		d := uint64(p.data[p.pos] - '0')
		if mag > (math.MaxUint64-d)/10 {
			return 0, errors.New("balance overflows int64")
		}
		mag = mag*10 + d
		p.pos++
	}
	digits := p.pos - start
	switch {
	case digits == 0:
		return 0, errors.New("balance is not a JSON integer")
	case digits > 1 && p.data[start] == '0':
		return 0, errors.New("balance has a leading zero")
	case p.pos < len(p.data) && (p.data[p.pos] == '.' || p.data[p.pos] == 'e' || p.data[p.pos] == 'E'):
		return 0, errors.New("balance is not an integer")
	}
	if neg {
		if mag > 1<<63 {
			return 0, errors.New("balance overflows int64")
		}
		return -int64(mag), nil
	}
	if mag > math.MaxInt64 {
		return 0, errors.New("balance overflows int64")
	}
	return int64(mag), nil
}
