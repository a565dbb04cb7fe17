package store_test

import (
	"context"
	"testing"

	"repro/internal/result"
	"repro/internal/store"
	"repro/internal/store/memlru"
)

// BenchmarkGetHitBackfill is a disk hit followed by its memory-tier
// backfill — the per-request work of a replica whose corpus outgrows
// its memory tier. Two keys alternate through a one-entry cache, so
// every backfill inserts and evicts. The backfill reuses the verified
// stored bytes as the table's encoded view: it performs no raw encode.
func BenchmarkGetHitBackfill(b *testing.B) {
	s, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	keys := []store.Key{store.KeyFor("EB", result.Params{Seed: 1}), store.KeyFor("EB", result.Params{Seed: 2})}
	for _, k := range keys {
		if err := s.Put(k, store.BenchTable(24)); err != nil {
			b.Fatal(err)
		}
	}
	mem, err := memlru.New(1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	encodes := result.Encodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		t, ok := s.Get(ctx, k)
		if !ok {
			b.Fatal("warmed store missed")
		}
		_ = mem.Put(k, t)
	}
	b.StopTimer()
	if raw := result.Encodes() - encodes; raw != 0 {
		b.Fatalf("%d raw encodes over %d hits, want 0", raw, b.N)
	}
}
