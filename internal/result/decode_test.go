package result

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"unicode/utf8"
)

// awkwardTable exercises every spelling rule the canonical decoder has
// to mirror: HTML-escaped and control characters, U+2028/2029, U+FFFD,
// non-ASCII text, float format boundaries,
// negative zero, nil versus empty slices, and every annotation.
func awkwardTable() *Table {
	t := &Table{
		ID:      "EZ",
		Title:   "a<b & c>d \"q\" \\ \t\n\r\b\f\x00\x1f\x7f",
		Claim:   "≥ 2^{−k/8} \u2028 \u2029 \ufffd é",
		Columns: []string{"", "k"},
		Shape:   "",
	}
	t.AddRow(Float(1e-7), Float(1e21).WithErr(1e-9), Float(math.Copysign(0, -1)),
		Float(5e-324), Float(math.MaxFloat64), Float(123456789.125))
	t.AddRow(Int(math.MinInt64), Int(math.MaxInt64).WithErr(-0.5).WithBound(BoundLower),
		FloatPrec(0.1, -3).WithBound(BoundUpper), Bool(false), Bool(true), Str(""))
	t.Rows = append(t.Rows, nil, []Cell{})
	return t
}

// realTable is a stored E13 table (quick mode, seed 1) as the
// experiment registry encodes it.
func realTable(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile("testdata/E13-quick.json")
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestDecodeRoundTripsExactly: for tables spanning every spelling rule,
// DecodeJSON accepts the canonical bytes and the decoded table
// re-encodes to exactly them.
func TestDecodeRoundTripsExactly(t *testing.T) {
	empty := &Table{ID: "E0"}
	emptySlices := &Table{ID: "E0", Columns: []string{}, Rows: [][]Cell{}}
	for _, tab := range []*Table{awkwardTable(), sample(), empty, emptySlices} {
		want, err := tab.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeJSON(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("canonical bytes rejected: %v\n%s", err, want)
		}
		again, err := got.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, want) {
			t.Fatalf("round trip changed bytes:\n got %s\nwant %s", again, want)
		}
	}
	real := realTable(t)
	got, err := DecodeJSON(bytes.NewReader(real))
	if err != nil {
		t.Fatal(err)
	}
	if enc, _ := got.CanonicalJSON(); string(enc)+"\n" != string(real) {
		t.Fatal("real E13 table does not re-encode to its stored bytes")
	}
}

// TestDecodeRejectsOtherSpellings: well-formed JSON for a valid table,
// spelled in any way CanonicalJSON would not spell it, is an error — the
// strictness FromVerified's memo seeding rests on.
func TestDecodeRejectsOtherSpellings(t *testing.T) {
	const ok = `{"schema":1,"id":"E1","title":"t","claim":"c","columns":["a"],"rows":[[{"f":0.5,"prec":2,"err":0.1,"bound":"upper"}]],"shape":"s"}`
	if _, err := DecodeJSON(strings.NewReader(ok)); err != nil {
		t.Fatalf("control payload rejected: %v", err)
	}
	for name, payload := range map[string]string{
		"whitespace":        strings.Replace(ok, `"id":`, `"id": `, 1),
		"key order":         strings.Replace(ok, `"title":"t","claim":"c"`, `"claim":"c","title":"t"`, 1),
		"key case":          strings.Replace(ok, `"id"`, `"ID"`, 1),
		"missing key":       strings.Replace(ok, `"title":"t",`, ``, 1),
		"null string":       strings.Replace(ok, `"title":"t"`, `"title":null`, 1),
		"trailing data":     ok + `{}`,
		"two newlines":      ok + "\n\n",
		"float spelling":    strings.Replace(ok, `0.5`, `0.50`, 1),
		"float exponent":    strings.Replace(ok, `0.5`, `5e-1`, 1),
		"int spelling":      strings.Replace(ok, `"schema":1`, `"schema":1.0`, 1),
		"plus sign":         strings.Replace(ok, `"prec":2`, `"prec":+2`, 1),
		"zero prec":         strings.Replace(ok, `"prec":2`, `"prec":0`, 1),
		"zero err":          strings.Replace(ok, `"err":0.1`, `"err":0`, 1),
		"prec overflow":     strings.Replace(ok, `"prec":2`, `"prec":300`, 1),
		"annotation order":  strings.Replace(ok, `"err":0.1,"bound":"upper"`, `"bound":"upper","err":0.1`, 1),
		"needless escape":   strings.Replace(ok, `"t"`, `"\u0074"`, 1),
		"uppercase escape":  strings.Replace(ok, `"t"`, `"\u003C"`, 1),
		"solidus escape":    strings.Replace(ok, `"t"`, `"\/"`, 1),
		"raw html":          strings.Replace(ok, `"t"`, `"<"`, 1),
		"raw separator":     strings.Replace(ok, `"t"`, "\"\u2028\"", 1),
		"invalid utf8":      strings.Replace(ok, `"t"`, "\"\xff\"", 1),
		"replacement esc":   strings.Replace(ok, `"t"`, `"\ufffd"`, 1),
		"short escape as u": strings.Replace(ok, `"t"`, `"\u000a"`, 1),
		"minus zero int":    strings.Replace(ok, `"schema":1`, `"schema":-0`, 1),
	} {
		if _, err := DecodeJSON(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: non-canonical payload decoded without error: %s", name, payload)
		}
	}
}

// TestCellUnmarshalSharesTheRules: json.Unmarshal into a Cell applies
// the table decoder's cell grammar.
func TestCellUnmarshalSharesTheRules(t *testing.T) {
	for _, c := range []Cell{Int(3).WithErr(1).WithBound(BoundLower), FloatPrec(0.25, 3), Str("<x>"), Bool(true)} {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var back Cell
		if err := json.Unmarshal(b, &back); err != nil || back != c {
			t.Fatalf("cell %s decoded to %+v, %v", b, back, err)
		}
	}
	for _, bad := range []string{`{}`, `{"i":1,"f":2}`, `{"s":"x","prec":9}`, `{"b":true,"err":0.1}`, `{"f":1,"bound":"sideways"}`, `{"i":1}{}`} {
		var c Cell
		if err := json.Unmarshal([]byte(bad), &c); err == nil {
			t.Errorf("cell %s decoded without error", bad)
		}
	}
}

// TestFromVerifiedSeedsTheMemo: a table built from verified bytes
// serves exactly those bytes plus the newline as its wire form, with no
// raw encode.
func TestFromVerifiedSeedsTheMemo(t *testing.T) {
	canonical := bytes.TrimSuffix(realTable(t), []byte("\n"))
	before := Encodes()
	tab, err := FromVerified(canonical)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := tab.EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(canonical)+"\n" {
		t.Fatal("seeded wire bytes differ from the verified bytes")
	}
	if raw := Encodes() - before; raw != 0 {
		t.Fatalf("FromVerified + EncodedJSON performed %d raw encodes, want 0", raw)
	}
	canonical[0] = 'X' // the caller keeps its buffer; the memo is a copy
	if enc[0] != '{' {
		t.Fatal("memo aliases the caller's buffer")
	}
	if _, err := FromVerified(append(canonical[:0:0], "{}"...)); err == nil {
		t.Fatal("FromVerified accepted a non-table")
	}
}

// TestJSONRejectsInvalidUTF8: text with no round-trippable encoding is
// refused at encode time, wherever it sits in the table.
func TestJSONRejectsInvalidUTF8(t *testing.T) {
	const bad = "x\xffy"
	for name, tab := range map[string]*Table{
		"id":     {ID: bad},
		"title":  {ID: "EX", Title: bad},
		"column": {ID: "EX", Columns: []string{"a", bad}},
		"cell":   {ID: "EX", Columns: []string{"a"}, Rows: [][]Cell{{Str(bad)}}},
	} {
		if _, err := tab.CanonicalJSON(); err == nil {
			t.Errorf("invalid UTF-8 in the %s encoded without error", name)
		}
	}
}

// FuzzDecodeJSON checks the stored-bytes decoder on arbitrary input: it
// never panics, and any input it accepts re-encodes with CanonicalJSON
// to exactly its bytes — the property that lets FromVerified seed the
// memo with them. Each input is also read as raw material for a table
// (strings, a float, an int) whose canonical encoding must decode and
// round-trip, so the decoder never rejects what the encoder writes.
func FuzzDecodeJSON(f *testing.F) {
	real := realTable(f)
	seeds := [][]byte{real, bytes.TrimSuffix(real, []byte("\n"))}
	for _, tab := range []*Table{awkwardTable(), sample(), {ID: "E0"}} {
		b, err := tab.CanonicalJSON()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, s := range append([][]byte(nil), seeds...) {
		seeds = append(seeds, s[:len(s)/2], s[:len(s)-1])
		for _, at := range []int{1, len(s) / 3, len(s) - 2} {
			flipped := append([]byte(nil), s...)
			flipped[at] ^= 0x04
			seeds = append(seeds, flipped)
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := DecodeJSON(bytes.NewReader(data))
		canonical := bytes.TrimSuffix(data, []byte("\n"))
		verified, verr := FromVerified(canonical)
		if (err == nil) != (verr == nil) {
			t.Fatalf("DecodeJSON err %v but FromVerified err %v", err, verr)
		}
		if err == nil {
			again, err := tab.CanonicalJSON()
			if err != nil {
				t.Fatalf("accepted table does not re-encode: %v", err)
			}
			if !bytes.Equal(again, canonical) {
				t.Fatalf("accepted input re-encodes differently:\n  in %q\n out %q", canonical, again)
			}
			enc, err := verified.EncodedJSON()
			if err != nil || string(enc) != string(again)+"\n" {
				t.Fatalf("seeded memo %q differs from the re-encoding", enc)
			}
		}

		// The other direction: whatever the bytes spell as text and
		// numbers, the encoder's output decodes and round-trips — or the
		// encoder refuses it (invalid UTF-8 has no round-trippable form).
		gen := &Table{ID: "EF", Title: string(data), Columns: []string{string(data)}}
		var bits [8]byte
		copy(bits[:], data)
		v := math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		gen.AddRow(Str(string(data)), Float(v).WithErr(v), Int(int(binary.LittleEndian.Uint64(bits[:]))))
		want, err := gen.CanonicalJSON()
		if !utf8.Valid(data) {
			if err == nil {
				t.Fatalf("invalid UTF-8 text %q encoded", data)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeJSON(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("encoder output rejected: %v\n%q", err, want)
		}
		if back.Title != string(data) {
			t.Fatalf("title %q decoded as %q", data, back.Title)
		}
		if again, _ := back.CanonicalJSON(); !bytes.Equal(again, want) {
			t.Fatalf("encoder output does not round-trip:\n in %q\nout %q", want, again)
		}
	})
}
