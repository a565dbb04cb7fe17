package result

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"unicode/utf8"
)

// cellJSON is the wire form of a Cell: exactly one of s/i/f/b is present
// and selects the kind; prec, err and bound ride along when meaningful.
type cellJSON struct {
	S     *string  `json:"s,omitempty"`
	I     *int64   `json:"i,omitempty"`
	F     *float64 `json:"f,omitempty"`
	B     *bool    `json:"b,omitempty"`
	Prec  int8     `json:"prec,omitempty"`
	Err   float64  `json:"err,omitempty"`
	Bound string   `json:"bound,omitempty"`
}

// boundNames maps the annotation to its wire token (index = BoundKind).
var boundNames = [...]string{BoundNone: "", BoundUpper: "upper", BoundLower: "lower"}

// MarshalJSON implements the canonical cell encoding. Non-finite floats
// are rejected: measured probabilities and bounds are finite by
// construction, and NaN has no canonical JSON form.
func (c Cell) MarshalJSON() ([]byte, error) {
	var w cellJSON
	switch c.Kind {
	case KindString:
		if !utf8.ValidString(c.S) {
			return nil, errInvalidUTF8
		}
		// The pointer keeps the empty string present: a cell must carry
		// exactly one value key.
		w.S = &c.S
	case KindInt:
		w.I = &c.I
	case KindFloat:
		if math.IsNaN(c.F) || math.IsInf(c.F, 0) {
			return nil, fmt.Errorf("result: non-finite float cell %v", c.F)
		}
		w.F = &c.F
		w.Prec = c.Prec
	case KindBool:
		b := c.I != 0
		w.B = &b
	default:
		return nil, fmt.Errorf("result: unknown cell kind %d", c.Kind)
	}
	// Annotations only make sense on numeric cells, and the decoder
	// rejects them elsewhere — refuse to emit what could not be read
	// back (an asymmetry here would poison the store with objects that
	// every Get drops as corrupt).
	numeric := c.Kind == KindInt || c.Kind == KindFloat
	if c.Err != 0 {
		if !numeric {
			return nil, fmt.Errorf("result: uncertainty on non-numeric cell %+v", c)
		}
		if math.IsNaN(c.Err) || math.IsInf(c.Err, 0) {
			return nil, fmt.Errorf("result: non-finite cell uncertainty %v", c.Err)
		}
		w.Err = c.Err
	}
	if c.Bound != BoundNone {
		if !numeric {
			return nil, fmt.Errorf("result: bound annotation on non-numeric cell %+v", c)
		}
		if int(c.Bound) >= len(boundNames) {
			return nil, fmt.Errorf("result: unknown bound kind %d", c.Bound)
		}
		w.Bound = boundNames[c.Bound]
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the canonical cell encoding — exactly what
// MarshalJSON writes, under the same grammar and cell rules the table
// decoder applies (see parser): exactly one value key, prec only on
// floats, err and bound only on numbers, known bound names, no unknown
// keys. A foreign cell that would lose data or change spelling on
// re-encoding fails loudly instead of round-tripping differently.
func (c *Cell) UnmarshalJSON(data []byte) error {
	p := parser{src: string(data)}
	cell, err := p.cell()
	if err == nil && p.pos != len(p.src) {
		err = p.fail("trailing data after the cell")
	}
	if err != nil {
		return fmt.Errorf("result: decoding cell: %w", err)
	}
	*c = cell
	return nil
}

// tableJSON is the wire envelope of a Table. The schema version is part
// of the payload so a decoded file can be checked against the code that
// reads it.
type tableJSON struct {
	Schema  int      `json:"schema"`
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Claim   string   `json:"claim"`
	Columns []string `json:"columns"`
	Rows    [][]Cell `json:"rows"`
	Shape   string   `json:"shape"`
}

// errInvalidUTF8 refuses text with no round-trippable JSON form:
// encoding/json writes invalid bytes as U+FFFD, which then re-encodes
// differently, so the decoder (which accepts only bytes that re-encode
// to themselves) could never read the object back.
var errInvalidUTF8 = errors.New("result: invalid UTF-8 in table text")

// CanonicalJSON returns the canonical byte encoding of the table:
// encoding/json over a fixed-field-order envelope, with floats in Go's
// shortest round-trip form. Equal tables produce equal bytes, which is
// the property the fingerprinted store relies on. Tables whose text is
// not valid UTF-8 are refused, like non-finite floats.
func (t *Table) CanonicalJSON() ([]byte, error) {
	encodes.Add(1)
	for _, s := range append([]string{t.ID, t.Title, t.Claim, t.Shape}, t.Columns...) {
		if !utf8.ValidString(s) {
			return nil, errInvalidUTF8
		}
	}
	return json.Marshal(tableJSON{
		Schema:  SchemaVersion,
		ID:      t.ID,
		Title:   t.Title,
		Claim:   t.Claim,
		Columns: t.Columns,
		Rows:    t.Rows,
		Shape:   t.Shape,
	})
}

// EncodeJSON writes the canonical encoding followed by a newline — the
// memoized wire bytes of EncodedJSON, so repeated writes of one table
// encode it once.
func (t *Table) EncodeJSON(w io.Writer) error {
	b, err := t.EncodedJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// DecodeJSON reads one canonical table encoding, optionally followed by
// the newline EncodeJSON writes. It accepts the canonical bytes only —
// any other spelling, unknown fields and schema versions this code does
// not understand are errors — so a decoded table re-encodes to exactly
// its input. The whole reader is consumed; bound it (io.LimitReader)
// when the source is untrusted.
func DecodeJSON(r io.Reader) (*Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("result: decoding table: %w", err)
	}
	return decode(bytes.TrimSuffix(data, []byte("\n")))
}

// FromVerified decodes canonical table bytes whose integrity the caller
// has already proven — the store tiers call it after an envelope's
// SHA-256 matched — and seeds the table's EncodedJSON memo with those
// bytes plus the trailing newline. Every later view of the table (a
// memory-tier backfill, a response body, a write-through Put) then
// shares the stored bytes instead of encoding them again. The decoder
// accepts canonical bytes only, so the seeded memo is exactly what
// CanonicalJSON would have produced. The input is copied; the caller
// keeps ownership of canonical.
func FromVerified(canonical []byte) (*Table, error) {
	t, err := decode(canonical)
	if err != nil {
		return nil, err
	}
	wire := make([]byte, len(canonical)+1)
	copy(wire, canonical)
	wire[len(canonical)] = '\n'
	t.enc.jsonOnce.Do(func() { t.enc.json = wire })
	return t, nil
}

// decode runs the canonical parser over one table encoding.
func decode(data []byte) (*Table, error) {
	p := parser{src: string(data)}
	t, err := p.table()
	if err != nil {
		return nil, fmt.Errorf("result: decoding table: %w", err)
	}
	return t, nil
}

// Equal reports whether two tables hold identical typed data. It is the
// semantic comparison scheduler and store tests assert with; because the
// canonical encoding is deterministic, Equal(a, b) iff their
// CanonicalJSON bytes match.
func (t *Table) Equal(o *Table) bool {
	a, errA := t.CanonicalJSON()
	b, errB := o.CanonicalJSON()
	return errA == nil && errB == nil && bytes.Equal(a, b)
}
