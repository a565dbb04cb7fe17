package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/result"
)

// The one stored-object layout, written and read by both the disk tier
// and the bucket tier (store/objstore):
//
//	{"checksum":"<64 lowercase hex>","table":<canonical table JSON>}
//
// The checksum is the SHA-256 of the embedded table bytes. Disk objects
// end with one newline; bucket objects do not. Readers split this fixed
// layout directly: any other layout is corrupt.
const (
	envelopePrefix = `{"checksum":"`
	envelopeInfix  = `","table":`
	sumLen         = 2 * sha256.Size
)

// errMisfiled marks a verified object that answers for another id than
// the key it was read under — copied or written under the wrong name.
var errMisfiled = errors.New("object holds another table")

// EncodeEnvelope returns t's stored form, without a trailing newline,
// around the table's memoized wire bytes: no raw encode for a table
// that any tier, response or verified read has already touched.
func EncodeEnvelope(t *result.Table) ([]byte, error) {
	enc, err := t.EncodedJSON()
	if err != nil {
		return nil, err
	}
	canonical := enc[:len(enc)-1]
	sum := sha256.Sum256(canonical)
	out := append([]byte(envelopePrefix), hex.EncodeToString(sum[:])...)
	out = append(append(out, envelopeInfix...), canonical...)
	return append(out, '}'), nil
}

// DecodeEnvelope verifies raw as k's stored object: the fixed layout,
// the checksum, a canonical table, and the table's id against k.ID. The
// table's EncodedJSON is then the verified bytes (result.FromVerified),
// so serving it encodes nothing.
//
//bcclint:allow(missdegrade) the codec is not a tier boundary: both tiers turn its error into a miss and keep the reason for stats and breakers
func DecodeEnvelope(raw []byte, k Key) (*result.Table, error) {
	t, err := decodeEnvelope(raw)
	if err == nil && t.ID != k.ID {
		return nil, fmt.Errorf("store: %w: table %q under the key of %q", errMisfiled, t.ID, k.ID)
	}
	return t, err
}

// decodeEnvelope is DecodeEnvelope without the identity check, for
// scans that know an object's fingerprint but not its key.
func decodeEnvelope(raw []byte) (*result.Table, error) {
	rest, ok := bytes.CutPrefix(bytes.TrimSuffix(raw, []byte("\n")), []byte(envelopePrefix))
	if !ok || len(rest) < sumLen {
		return nil, errors.New("store: not an envelope")
	}
	table, infix := bytes.CutPrefix(rest[sumLen:], []byte(envelopeInfix))
	table, closed := bytes.CutSuffix(table, []byte("}"))
	if !infix || !closed {
		return nil, errors.New("store: not an envelope")
	}
	if sum := sha256.Sum256(table); hex.EncodeToString(sum[:]) != string(rest[:sumLen]) {
		return nil, errors.New("store: object checksum mismatch")
	}
	return result.FromVerified(table)
}
