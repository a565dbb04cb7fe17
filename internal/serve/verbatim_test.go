package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/store/objstore"
	"repro/internal/store/tier"
)

// storedTableBytes slices the checksummed table bytes out of a stored
// envelope, independently of the codec under test.
func storedTableBytes(t *testing.T, object []byte) []byte {
	t.Helper()
	object = bytes.TrimSuffix(object, []byte("\n"))
	const infix = `","table":`
	i := bytes.Index(object, []byte(infix))
	if i < 0 || !bytes.HasSuffix(object, []byte("}")) {
		t.Fatalf("not an envelope: %q", object)
	}
	return object[i+len(infix) : len(object)-1]
}

// verbatimTable is the table a previous process stored for EX, seed 7.
func verbatimTable() (store.Key, *result.Table) {
	tab := &result.Table{ID: "EX", Title: "synthetic", Claim: "n ≥ 2 & p < 1",
		Columns: []string{"seed", "quick"}, Shape: "holds"}
	tab.AddRow(result.Int(7), result.Bool(true))
	return store.KeyFor("EX", result.Params{Seed: 7, Quick: true}), tab
}

// getVerbatim starts a fresh serving stack — as a restarted replica
// would — GETs the stored table, and checks that the response is a hit
// on wantTier whose body is the stored table bytes plus the newline,
// and that the request, including its memory-tier backfill, performed
// no raw encode and no computation.
func getVerbatim(t *testing.T, cfg tier.Config, wantTier string, stored []byte) {
	t.Helper()
	stack, err := tier.NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	srv := &Server{Sched: sched.New(stack.Backend, 2), Stack: stack,
		Registry: countingRegistry(&calls, nil), Seed: 2019, Quick: true, Workers: 2}
	h := srv.Handler()
	want := string(stored) + "\n"

	before := result.Encodes()
	res, body := get(t, h, "/tables/EX?seed=7")
	if res.StatusCode != 200 || res.Header.Get("X-Cache-Tier") != wantTier {
		t.Fatalf("restarted replica: %d, X-Cache-Tier %q, want 200 from %s", res.StatusCode, res.Header.Get("X-Cache-Tier"), wantTier)
	}
	if body != want {
		t.Fatalf("body is not the stored bytes:\n got %q\nwant %q", body, want)
	}
	// The backfill landed: the next request is a memory hit on the same
	// bytes.
	res, body = get(t, h, "/tables/EX?seed=7")
	if res.Header.Get("X-Cache-Tier") != "memory" || body != want {
		t.Fatalf("after backfill: X-Cache-Tier %q, body match %t", res.Header.Get("X-Cache-Tier"), body == want)
	}
	if raw := result.Encodes() - before; raw != 0 {
		t.Fatalf("%s hit + backfill + memory hit performed %d raw encodes, want 0", wantTier, raw)
	}
	if calls.Load() != 0 {
		t.Fatalf("stored table recomputed: %d calls", calls.Load())
	}
}

// TestRestartedReplicaServesDiskBytesVerbatim: a table written through
// one store handle is served by a fresh memory+disk stack on the same
// directory byte for byte as stored, with zero encodes.
func TestRestartedReplicaServesDiskBytesVerbatim(t *testing.T) {
	dir := t.TempDir()
	k, tab := verbatimTable()
	writer, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Put(k, tab); err != nil {
		t.Fatal(err)
	}
	object, err := os.ReadFile(filepath.Join(dir, "objects", k.Fingerprint+".json"))
	if err != nil {
		t.Fatal(err)
	}
	getVerbatim(t, tier.Config{MemCapacity: 4, Dir: dir}, "disk", storedTableBytes(t, object))
}

// TestSharedBucketHitServesBytesVerbatim: the same for a table another
// replica published to the shared bucket. The hit also backfills the
// local disk, whose object must be the bucket's plus the newline.
func TestSharedBucketHitServesBytesVerbatim(t *testing.T) {
	bucketDir, diskDir := t.TempDir(), t.TempDir()
	k, tab := verbatimTable()
	client, err := objstore.NewFS(bucketDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := objstore.New(client).Put(k, tab); err != nil {
		t.Fatal(err)
	}
	object, err := os.ReadFile(filepath.Join(bucketDir, k.Fingerprint+".json"))
	if err != nil {
		t.Fatal(err)
	}
	getVerbatim(t, tier.Config{MemCapacity: 4, Dir: diskDir, ObjstoreDir: bucketDir}, "objstore", storedTableBytes(t, object))
	local, err := os.ReadFile(filepath.Join(diskDir, "objects", k.Fingerprint+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(local) != string(object)+"\n" {
		t.Fatalf("disk backfill\n got %q\nwant %q", local, string(object)+"\n")
	}
}
