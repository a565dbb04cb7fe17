package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/result"
)

// realObject is a disk object for the quick E13 table (seed 1), as a
// store written by the registry holds it.
func realObject(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile("testdata/E13-quick.object")
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestEnvelopeLayout pins the stored bytes: the checksum of the
// canonical table, then the table verbatim — byte-identical to
// encoding/json's rendering of that object, which is how existing
// stores were written, so they stay readable.
func TestEnvelopeLayout(t *testing.T) {
	tab := tableFor("E3")
	canonical, err := tab.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(canonical)
	want, err := json.Marshal(struct {
		Checksum string          `json:"checksum"`
		Table    json.RawMessage `json:"table"`
	}{hex.EncodeToString(sum[:]), canonical})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeEnvelope(tab)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope\n got %s\nwant %s", got, want)
	}
	// Both stored forms read back: disk's trailing newline, the bucket's
	// bare object.
	k := keyFor("E3", 1)
	for _, raw := range [][]byte{got, append(got, '\n')} {
		back, err := DecodeEnvelope(raw, k)
		if err != nil || !back.Equal(tab) {
			t.Fatalf("DecodeEnvelope(%q) = %v", raw, err)
		}
	}
	for name, raw := range map[string][]byte{
		"two newlines":   append(append(got, '\n'), '\n'),
		"space":          append([]byte(" "), got...),
		"no close":       got[:len(got)-1],
		"upper checksum": bytes.Replace(got, []byte(hex.EncodeToString(sum[:])), bytes.ToUpper([]byte(hex.EncodeToString(sum[:]))), 1),
		"key order":      []byte(`{"table":` + string(canonical) + `,"checksum":"` + hex.EncodeToString(sum[:]) + `"}`),
	} {
		if _, err := DecodeEnvelope(raw, k); err == nil {
			t.Errorf("%s: accepted %q", name, raw)
		}
	}
}

// TestMisfiledObjectIsDamage: an intact object copied under another
// key's fingerprint answers for the wrong experiment. The disk tier
// reads it as a miss, counts it corrupt, and Prune removes it while the
// original stays.
func TestMisfiledObjectIsDamage(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k3, k5 := keyFor("E3", 1), keyFor("E5", 1)
	if err := s.Put(k3, tableFor("E3")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.objectPath(k3.Fingerprint))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objectPath(k5.Fingerprint), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(context.Background(), k5); ok {
		t.Fatal("object for E3 answered a lookup for E5")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 1 {
		t.Fatalf("stats %+v, want the misfiled read counted corrupt", st)
	}
	removed, err := Prune(s, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("Prune removed %d, want the misfiled object", removed)
	}
	if _, err := os.Stat(s.objectPath(k5.Fingerprint)); !os.IsNotExist(err) {
		t.Fatalf("misfiled object survived Prune: %v", err)
	}
	if _, ok := s.Get(context.Background(), k3); !ok {
		t.Fatal("Prune removed the correctly filed original")
	}
	// A Put heals the slot and clears the mark: nothing left to prune.
	if err := s.Put(k5, tableFor("E5")); err != nil {
		t.Fatal(err)
	}
	if removed, err := Prune(s, 24*time.Hour); err != nil || removed != 0 {
		t.Fatalf("Prune after heal removed %d (%v), want 0", removed, err)
	}
}

// FuzzDecodeEnvelope checks the stored-object reader on arbitrary
// bytes: it never panics, and any object it accepts carries a table
// that re-encodes with CanonicalJSON to exactly the checksummed bytes —
// which is what lets a hit serve them without encoding.
func FuzzDecodeEnvelope(f *testing.F) {
	real := realObject(f)
	var seeds [][]byte
	for _, tab := range []*result.Table{tableFor("E13"), benchTable(3)} {
		tab.ID = "E13"
		b, err := EncodeEnvelope(tab)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	seeds = append(seeds, real, bytes.TrimSuffix(real, []byte("\n")))
	for _, s := range append([][]byte(nil), seeds...) {
		seeds = append(seeds, s[:len(s)/2], s[:len(s)-2])
		for _, at := range []int{2, 20, len(s) / 2, len(s) - 3} {
			flipped := append([]byte(nil), s...)
			flipped[at] ^= 0x01
			seeds = append(seeds, flipped)
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	k := KeyFor("E13", result.Params{Seed: 1, Quick: true})
	f.Fuzz(func(t *testing.T, raw []byte) {
		tab, err := DecodeEnvelope(raw, k)
		if err != nil {
			return
		}
		body := bytes.TrimSuffix(bytes.TrimSuffix(raw, []byte("\n")), []byte("}"))
		table := body[len(envelopePrefix)+sumLen+len(envelopeInfix):]
		if sum := sha256.Sum256(table); hex.EncodeToString(sum[:]) != string(body[len(envelopePrefix):][:sumLen]) {
			t.Fatal("accepted object whose checksum does not cover its table bytes")
		}
		if tab.ID != k.ID {
			t.Fatalf("accepted table %q for key %q", tab.ID, k.ID)
		}
		again, err := tab.CanonicalJSON()
		if err != nil || !bytes.Equal(again, table) {
			t.Fatalf("accepted table re-encodes to %q (%v), stored %q", again, err, table)
		}
		if enc, _ := tab.EncodedJSON(); string(enc) != string(table)+"\n" {
			t.Fatal("served bytes differ from the stored table bytes")
		}
	})
}
