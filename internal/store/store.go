// Package store is the content-addressed cache of completed experiment
// tables: any (experiment, seed, quick) triple is computed once ever,
// then served from cache by every later run — the CLI, the scheduler,
// and the bccserve HTTP API all read and write the same corpus.
//
// The Get/Put contract lives in the Backend interface; this package's
// Store is the durable disk tier (L1). Two sibling packages implement
// the fast and the shared tiers on the same contract — store/memlru is
// the in-process hot table (L0), store/remote reads a peer bccserve's
// corpus over HTTP (L2) — and store/tier composes any stack of them
// with fallthrough and backfill. Every tier degrades to a miss on
// failure (damage, network, decode): lookups never error, callers
// recompute instead.
//
// # Layout
//
//	<dir>/objects/<fingerprint>.json   one table per file
//	<dir>/index.json                   derived listing (rebuildable)
//
// Each object file is one fixed-layout envelope (EncodeEnvelope), the
// same one the shared bucket tier stores:
//
//	{"checksum":"<64 hex>","table":<canonical table JSON>}\n
//
// The fingerprint in the file name addresses the content before it is
// computed (it hashes the run identity — experiment id, seed, quick,
// schema version); the checksum inside detects damage after, and the
// table's id must be the one its key names, so an object copied under
// another fingerprint is damage too. A verified object's table bytes
// are served as they are: the decoded table's encoded view is the
// stored bytes, never a re-encode.
//
// # Durability and concurrency
//
// Writes are atomic: the envelope is written to a temporary file in the
// store directory and renamed into place, so readers never observe a
// half-written object. Concurrent writers racing on one fingerprint are
// harmless — both render identical bytes (fingerprints determine content)
// and either rename wins. Reads tolerate corruption: a truncated,
// damaged, or schema-incompatible object is reported as a miss, so the
// caller recomputes instead of failing, and the recompute's Put
// atomically overwrites the damaged object. Readers never delete —
// removal on a failed read could race a concurrent writer's rename and
// destroy a healthy object.
//
// The index is a convenience view for listings and stats; it is
// rewritten atomically after each Put and rebuilt from the objects
// directory whenever it is missing or unreadable. The objects are the
// source of truth.
package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/result"
)

// Store is a handle on one cache directory. It is safe for concurrent
// use by multiple goroutines; distinct processes sharing one directory
// are also safe thanks to the atomic-rename write discipline.
type Store struct {
	dir string

	mu      sync.Mutex
	hits    uint64
	misses  uint64
	puts    uint64
	corrupt uint64 // reads that failed the checksum/decode/id check
	// misfiled maps the fingerprint of each object a Get found holding
	// another experiment's table to the id its key names, so Prune can
	// remove it (the scan alone cannot tell: it knows fingerprints, not
	// keys). A Put for the fingerprint clears the mark.
	misfiled map[string]string

	// indexMu serializes read-modify-write cycles on index.json within
	// this process. Cross-process writers can still interleave, which at
	// worst leaves the advisory index stale — the objects directory is
	// the source of truth and Index falls back to a full rebuild.
	indexMu sync.Mutex
}

// Entry describes one cached object in the index.
type Entry struct {
	// Fingerprint is the object's content address (file name stem).
	Fingerprint string `json:"fingerprint"`
	// ID is the experiment id of the stored table (empty when the object
	// could not be read at scan time).
	ID string `json:"id"`
	// Bytes is the object file size.
	Bytes int64 `json:"bytes"`
	// Unix is the object's modification time (seconds).
	Unix int64 `json:"unix"`
	// Damaged marks an object that was read successfully but failed the
	// checksum/decode, or that a Get found answering for another id —
	// proven corruption, as opposed to a transient read failure (which
	// leaves ID empty and Damaged false).
	Damaged bool `json:"damaged,omitempty"`
}

// Stats summarizes a store's content and this handle's traffic.
type Stats struct {
	// Objects and Bytes describe what is on disk now.
	Objects int   `json:"objects"`
	Bytes   int64 `json:"bytes"`
	// Hits/Misses/Puts/Corrupt count this handle's operations: Corrupt
	// counts reads that failed the checksum/decode/id check (the object
	// stays in place and is healed by the next Put for its fingerprint).
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Puts    uint64 `json:"puts"`
	Corrupt uint64 `json:"corrupt"`
}

// orphanTTL is how old a leftover temp file must be before a sweep
// removes it. A crash mid-write leaves its temp file behind forever (the
// rename never happened), but a *young* temp file may be another
// process's in-flight write on a shared directory — deleting it would
// fail that writer's rename. An hour is far beyond any legitimate
// write's lifetime and far below "accumulating junk".
const orphanTTL = time.Hour

// SweepOrphans removes the files in dirs whose names start with prefix
// and that are older than an hour — the debris of WriteAtomic callers
// that crashed between creating the temp file and renaming it. Failures
// are ignored file by file: the sweep is hygiene, not correctness, since
// every read path matches exact object names. The disk store sweeps its
// ".tmp-" files, the filesystem bucket its "put-" files.
func SweepOrphans(prefix string, dirs ...string) {
	cutoff := time.Now().Add(-orphanTTL)
	for _, dir := range dirs {
		des, _ := os.ReadDir(dir)
		for _, de := range des {
			if !strings.HasPrefix(de.Name(), prefix) || de.IsDir() {
				continue
			}
			if info, err := de.Info(); err == nil && info.ModTime().Before(cutoff) {
				os.Remove(filepath.Join(dir, de.Name()))
			}
		}
	}
}

// WriteAtomic writes data to a temp file named by pattern (as for
// os.CreateTemp) in path's directory and renames it over path, so
// readers in any process sharing the directory observe the old file or
// the new one, never a partial write.
func WriteAtomic(path, pattern string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Open returns a handle on dir, creating the layout if needed. Orphaned
// temp files from a previous crash mid-write are swept (they are
// invisible to reads, but on a small disk a crash loop would otherwise
// accumulate them without bound).
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, misfiled: map[string]string{}}
	s.sweepOrphans()
	return s, nil
}

// tmpPrefix names the store's in-flight writes.
const tmpPrefix = ".tmp-"

// sweepOrphans clears crashed writes from the root and objects
// directories.
func (s *Store) sweepOrphans() {
	SweepOrphans(tmpPrefix, s.dir, filepath.Join(s.dir, "objects"))
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Name identifies the disk tier in stats and cache headers.
func (s *Store) Name() string { return "disk" }

func (s *Store) objectPath(fp string) string {
	return filepath.Join(s.dir, "objects", fp+".json")
}

// validFingerprint guards the file-name position: fingerprints are
// 64-char lowercase hex (result.Fingerprint's output), so nothing a
// caller passes can escape the objects directory.
func validFingerprint(fp string) bool {
	if len(fp) != 64 {
		return false
	}
	for _, c := range fp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// errCorrupt marks an object that was read in full but failed the
// checksum, decode or id check — proven damage, distinct from transient
// I/O failure.
var errCorrupt = errors.New("store: object corrupt")

// Get returns the cached table for a key, or (nil, false) on a miss.
// Corrupt or unreadable objects count as misses; the caller's
// recompute-and-Put overwrites a damaged object in place. The
// fingerprint names the file; the object must then answer for k.ID. The
// context is ignored: a local disk read is not worth making
// interruptible.
func (s *Store) Get(_ context.Context, k Key) (*result.Table, bool) {
	t, err := s.read(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || t == nil {
		s.misses++
		if errors.Is(err, errCorrupt) {
			s.corrupt++
		}
		if errors.Is(err, errMisfiled) {
			s.misfiled[k.Fingerprint] = k.ID
		}
		return nil, false
	}
	s.hits++
	return t, true
}

// read loads and verifies one object: (nil, nil) means absent, an
// errCorrupt-wrapped error means present but damaged, any other error
// is a (possibly transient) read failure. Nothing is ever deleted here.
func (s *Store) read(k Key) (*result.Table, error) {
	if !validFingerprint(k.Fingerprint) {
		return nil, nil
	}
	raw, err := os.ReadFile(s.objectPath(k.Fingerprint))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	t, err := DecodeEnvelope(raw, k)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errCorrupt, err)
	}
	return t, nil
}

// Put stores a table under its key's fingerprint with an atomic
// write-and-rename, then refreshes the index.
func (s *Store) Put(k Key, t *result.Table) error {
	fp := k.Fingerprint
	if !validFingerprint(fp) {
		return fmt.Errorf("store: malformed fingerprint %q", fp)
	}
	blob, err := EncodeEnvelope(t)
	if err != nil {
		return fmt.Errorf("store: encoding table %s: %w", t.ID, err)
	}
	data := append(blob, '\n')
	if err := WriteAtomic(s.objectPath(fp), tmpPrefix+"*", data); err != nil {
		return err
	}
	s.mu.Lock()
	s.puts++
	delete(s.misfiled, fp)
	s.mu.Unlock()
	return s.upsertIndex(Entry{
		Fingerprint: fp,
		ID:          t.ID,
		Bytes:       int64(len(data)),
		Unix:        time.Now().Unix(),
	})
}

// Entries scans the objects directory and returns the live index,
// sorted by fingerprint. Damaged objects appear with Damaged set — they
// are visible (and prunable) but not trusted.
func (s *Store) Entries() ([]Entry, error) {
	names, err := os.ReadDir(filepath.Join(s.dir, "objects"))
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, len(names))
	for _, de := range names {
		name := de.Name()
		fp, isObj := strings.CutSuffix(name, ".json")
		if !isObj || !validFingerprint(fp) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		e := Entry{Fingerprint: fp, Bytes: info.Size(), Unix: info.ModTime().Unix()}
		if raw, err := os.ReadFile(s.objectPath(fp)); err == nil {
			if t, err := decodeEnvelope(raw); err == nil {
				e.ID = t.ID
				s.mu.Lock()
				want, misfiled := s.misfiled[fp]
				s.mu.Unlock()
				// A Get proved this fingerprint belongs to another id;
				// the object is damage unless a Put has since healed it.
				e.Damaged = misfiled && e.ID != want
			} else {
				// Read in full but failed the checksum/decode: proven
				// corruption. A transient ReadFile failure leaves the
				// entry undamaged (just id-less) so Prune spares it.
				e.Damaged = true
			}
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Fingerprint < entries[j].Fingerprint })
	return entries, nil
}

// writeIndex persists an entry list as index.json.
func (s *Store) writeIndex(entries []Entry) error {
	blob, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return WriteAtomic(filepath.Join(s.dir, "index.json"), tmpPrefix+"*", append(blob, '\n'))
}

// rewriteIndex regenerates index.json from a full objects-directory
// scan — the recovery path for a missing or damaged index.
func (s *Store) rewriteIndex() error {
	entries, err := s.Entries()
	if err != nil {
		return err
	}
	return s.writeIndex(entries)
}

// readIndex parses index.json; any failure reports (nil, false) so the
// caller can fall back to a scan.
func (s *Store) readIndex() ([]Entry, bool) {
	raw, err := os.ReadFile(filepath.Join(s.dir, "index.json"))
	if err != nil {
		return nil, false
	}
	var entries []Entry
	if json.Unmarshal(raw, &entries) != nil {
		return nil, false
	}
	return entries, true
}

// upsertIndex folds one fresh entry into the persisted index without
// rescanning the objects directory (a Put would otherwise cost O(store
// size) in reads). A missing or damaged index triggers the full
// rebuild instead.
func (s *Store) upsertIndex(e Entry) error {
	s.indexMu.Lock()
	defer s.indexMu.Unlock()
	entries, ok := s.readIndex()
	if !ok {
		return s.rewriteIndex()
	}
	kept := entries[:0]
	for _, old := range entries {
		if old.Fingerprint != e.Fingerprint {
			kept = append(kept, old)
		}
	}
	kept = append(kept, e)
	sort.Slice(kept, func(i, j int) bool { return kept[i].Fingerprint < kept[j].Fingerprint })
	return s.writeIndex(kept)
}

// Index returns the persisted index, rebuilding it when missing or
// unreadable — the objects directory is the source of truth. Entries
// are advisory: an object dropped for corruption after its index write
// may linger until the next Put or Prune refreshes the file.
func (s *Store) Index() ([]Entry, error) {
	if entries, ok := s.readIndex(); ok {
		return entries, nil
	}
	if err := s.rewriteIndex(); err != nil {
		return nil, err
	}
	return s.Entries()
}

// Stats reports the store's current disk content and this handle's
// traffic counters. It reads the index, not the objects, so it stays
// cheap on large stores.
func (s *Store) Stats() (Stats, error) {
	entries, err := s.Index()
	if err != nil {
		return Stats{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Objects: len(entries), Hits: s.hits, Misses: s.misses, Puts: s.puts, Corrupt: s.corrupt}
	for _, e := range entries {
		st.Bytes += e.Bytes
	}
	return st, nil
}

// Prune removes every object older than maxAge and every provably
// damaged object regardless of age (checksum/decode failures, and
// objects this handle's Gets found answering for another id — an
// object that merely failed to read, e.g. under fd exhaustion or a
// permission hiccup, is left alone), returning how many were removed.
// It also sweeps temp files orphaned by a crash mid-write (not counted
// in the return — they were never objects).
func Prune(s *Store, maxAge time.Duration) (int, error) {
	s.sweepOrphans()
	entries, err := s.Entries()
	if err != nil {
		return 0, err
	}
	cutoff := time.Now().Add(-maxAge).Unix()
	removed := 0
	for _, e := range entries {
		if e.Damaged || e.Unix < cutoff {
			if err := os.Remove(s.objectPath(e.Fingerprint)); err == nil {
				removed++
			}
		}
	}
	if removed > 0 {
		if err := s.rewriteIndex(); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
