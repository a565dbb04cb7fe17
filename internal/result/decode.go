package result

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// parser reads the canonical table encoding — and nothing else — in one
// pass over the input. It accepts exactly the byte strings CanonicalJSON
// can produce: fixed key order, no whitespace, omitted zero annotations,
// Go's encoding/json string escapes and shortest round-trip numbers.
// Anything else is an error, including well-formed JSON that merely
// spells the same table differently.
//
// That strictness is the decoder's contract: a table it accepts
// re-encodes to exactly the bytes it was decoded from, so a decoded
// table may serve those bytes verbatim (FromVerified) instead of
// encoding them again. It also enforces the cell rules by grammar: a
// cell opens with exactly one value key (s, i, f or b), prec may only
// follow a float, err and bound only a number, and bound is "upper" or
// "lower".
type parser struct {
	// src is the whole input. Decoded strings without escapes are
	// substrings of it, so one conversion pays for every field.
	src string
	pos int
}

// fail reports a decode error at the current offset.
func (p *parser) fail(format string, args ...any) error {
	return fmt.Errorf("byte %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// lit consumes s if the input continues with it.
func (p *parser) lit(s string) bool {
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

// expect consumes s or fails.
func (p *parser) expect(s string) error {
	if !p.lit(s) {
		return p.fail("want %s", s)
	}
	return nil
}

// table reads one whole canonical table encoding.
func (p *parser) table() (*Table, error) {
	if err := p.expect(`{"schema":`); err != nil {
		return nil, err
	}
	schema, err := p.int(64)
	if err != nil {
		return nil, err
	}
	if schema != SchemaVersion {
		return nil, fmt.Errorf("table has schema version %d, this code reads %d", schema, SchemaVersion)
	}
	t := &Table{}
	for _, f := range []struct {
		key string
		dst *string
	}{{`,"id":`, &t.ID}, {`,"title":`, &t.Title}, {`,"claim":`, &t.Claim}} {
		if err := p.expect(f.key); err != nil {
			return nil, err
		}
		if *f.dst, err = p.str(); err != nil {
			return nil, err
		}
	}
	if err := p.expect(`,"columns":`); err != nil {
		return nil, err
	}
	if t.Columns, err = list(p, (*parser).str); err != nil {
		return nil, err
	}
	if err := p.expect(`,"rows":`); err != nil {
		return nil, err
	}
	if t.Rows, err = list(p, row); err != nil {
		return nil, err
	}
	if err := p.expect(`,"shape":`); err != nil {
		return nil, err
	}
	if t.Shape, err = p.str(); err != nil {
		return nil, err
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, p.fail("trailing data after the table")
	}
	return t, nil
}

// list reads a JSON array of items, or null. null decodes to a nil
// slice and [] to an empty one, as each re-encodes to itself.
func list[T any](p *parser, item func(*parser) (T, error)) ([]T, error) {
	if p.lit("null") {
		return nil, nil
	}
	if err := p.expect("["); err != nil {
		return nil, err
	}
	out := []T{}
	for !p.lit("]") {
		if len(out) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		v, err := item(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// row reads one row of cells.
func row(p *parser) ([]Cell, error) { return list(p, (*parser).cell) }

// cell reads one canonical cell: the value key first, then the
// annotations its kind may carry, each present only when non-zero.
func (p *parser) cell() (Cell, error) {
	var c Cell
	var err error
	switch {
	case p.lit(`{"s":`):
		c.Kind = KindString
		c.S, err = p.str()
	case p.lit(`{"i":`):
		c.Kind = KindInt
		if c.I, err = p.int(64); err == nil {
			err = p.annotations(&c)
		}
	case p.lit(`{"f":`):
		c.Kind = KindFloat
		if c.F, err = p.float(); err != nil {
			break
		}
		if p.lit(`,"prec":`) {
			var prec int64
			if prec, err = p.int(8); err != nil {
				break
			}
			if prec == 0 {
				return c, p.fail("zero prec is spelled by omission")
			}
			c.Prec = int8(prec)
		}
		err = p.annotations(&c)
	case p.lit(`{"b":`):
		c.Kind = KindBool
		switch {
		case p.lit("true"):
			c.I = 1
		case !p.lit("false"):
			err = p.fail("want true or false")
		}
	default:
		return c, p.fail(`a cell opens with exactly one value key: "s", "i", "f" or "b"`)
	}
	if err != nil {
		return c, err
	}
	if !p.lit("}") {
		return c, p.fail("want } — unknown, repeated or misplaced key in a %s cell", kindNames[c.Kind])
	}
	return c, nil
}

// kindNames names cell kinds in decode errors.
var kindNames = [...]string{KindString: "string", KindInt: "int", KindFloat: "float", KindBool: "bool"}

// annotations reads a numeric cell's optional err and bound.
func (p *parser) annotations(c *Cell) error {
	if p.lit(`,"err":`) {
		e, err := p.float()
		if err != nil {
			return err
		}
		if e == 0 {
			return p.fail("zero err is spelled by omission")
		}
		c.Err = e
	}
	if p.lit(`,"bound":`) {
		switch {
		case p.lit(`"upper"`):
			c.Bound = BoundUpper
		case p.lit(`"lower"`):
			c.Bound = BoundLower
		default:
			return p.fail("unknown bound annotation")
		}
	}
	return nil
}

// number consumes the characters a JSON number may contain; the callers
// parse and then check the token is the canonical spelling.
func (p *parser) number() string {
	start := p.pos
	for ; p.pos < len(p.src); p.pos++ {
		if c := p.src[p.pos]; (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
	}
	return p.src[start:p.pos]
}

// int reads a canonical decimal integer that fits in bits.
func (p *parser) int(bits int) (int64, error) {
	tok := p.number()
	v, err := strconv.ParseInt(tok, 10, bits)
	if err != nil {
		return 0, p.fail("bad integer %q", tok)
	}
	var buf [24]byte
	if string(strconv.AppendInt(buf[:0], v, 10)) != tok {
		return 0, p.fail("non-canonical integer %q", tok)
	}
	return v, nil
}

// float reads a finite float spelled the way encoding/json spells it.
func (p *parser) float() (float64, error) {
	tok := p.number()
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, p.fail("bad number %q", tok)
	}
	var buf [32]byte
	if string(appendJSONFloat(buf[:0], f)) != tok {
		return 0, p.fail("non-canonical number %q", tok)
	}
	return f, nil
}

// appendJSONFloat formats f exactly as encoding/json does for a
// float64: shortest round-trip digits, plain notation for magnitudes in
// [1e-6, 1e21), exponent notation outside it with a two-digit negative
// exponent shortened ("1e-07" → "1e-7").
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// str reads a string literal escaped the way encoding/json escapes it
// (with HTML escaping, as json.Marshal does). The common case — no
// escapes, plain ASCII — is a substring of the input with no copy.
func (p *parser) str() (string, error) {
	if err := p.expect(`"`); err != nil {
		return "", err
	}
	start := p.pos
	for p.pos < len(p.src) {
		switch b := p.src[p.pos]; {
		case b == '"':
			p.pos++
			return p.src[start : p.pos-1], nil
		case b < 0x20 || b >= utf8.RuneSelf || b == '\\' || b == '<' || b == '>' || b == '&':
			return p.strEscaped(start)
		}
		p.pos++
	}
	return "", p.fail("unterminated string")
}

// strEscaped finishes a string from the first byte that needs care,
// accepting an escape only where the encoder would have written that
// very escape, and a raw byte only where it would have written it raw.
func (p *parser) strEscaped(start int) (string, error) {
	buf := []byte(p.src[start:p.pos])
	for p.pos < len(p.src) {
		b := p.src[p.pos]
		switch {
		case b == '"':
			p.pos++
			return string(buf), nil
		case b == '\\':
			r, err := p.escape()
			if err != nil {
				return "", err
			}
			buf = utf8.AppendRune(buf, r)
		case b >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(p.src[p.pos:])
			if r == utf8.RuneError && size == 1 {
				return "", p.fail("invalid UTF-8 in string")
			}
			if r == '\u2028' || r == '\u2029' {
				return "", p.fail("raw U+%04X must be escaped", r)
			}
			buf = append(buf, p.src[p.pos:p.pos+size]...)
			p.pos += size
		case b < 0x20 || b == '<' || b == '>' || b == '&':
			return "", p.fail("raw %q must be escaped", b)
		default:
			buf = append(buf, b)
			p.pos++
		}
	}
	return "", p.fail("unterminated string")
}

// escape reads one backslash escape and returns the rune it stands for.
func (p *parser) escape() (rune, error) {
	if p.pos+1 >= len(p.src) {
		return 0, p.fail("truncated escape")
	}
	var short rune
	switch p.src[p.pos+1] {
	case '"', '\\':
		short = rune(p.src[p.pos+1])
	case 'b':
		short = '\b'
	case 'f':
		short = '\f'
	case 'n':
		short = '\n'
	case 'r':
		short = '\r'
	case 't':
		short = '\t'
	}
	if short != 0 {
		p.pos += 2
		return short, nil
	}
	const hexDigits = "0123456789abcdef"
	if p.src[p.pos+1] != 'u' || p.pos+6 > len(p.src) {
		return 0, p.fail("non-canonical escape")
	}
	var r rune
	for _, h := range []byte(p.src[p.pos+2 : p.pos+6]) {
		d := strings.IndexByte(hexDigits, h)
		if d < 0 {
			return 0, p.fail("non-canonical \\u escape")
		}
		r = r<<4 | rune(d)
	}
	switch {
	case r < 0x20 && r != '\b' && r != '\f' && r != '\n' && r != '\r' && r != '\t',
		r == '<', r == '>', r == '&', r == '\u2028', r == '\u2029':
	default:
		return 0, p.fail("non-canonical escape \\u%04x", r)
	}
	p.pos += 6
	return r, nil
}
