package store

import (
	"context"
	"testing"

	"repro/internal/result"
)

// benchTable builds a table of roughly serving size (tens of rows) so
// the hit path exercises a realistic decode.
func benchTable(rows int) *result.Table {
	t := &result.Table{
		ID:      "EB",
		Title:   "hit-path benchmark table",
		Claim:   "store hits are pure disk reads",
		Columns: []string{"n", "k", "advantage", "bound"},
		Shape:   "holds",
	}
	for i := 0; i < rows; i++ {
		t.AddRow(result.Int(64+i), result.Int(8),
			result.Float(0.5/float64(i+1)).WithErr(0.01),
			result.Float(1.0/float64(i+1)).WithBound(result.BoundUpper))
	}
	return t
}

// BenchTable exposes the fixture to the external-package benchmarks.
var BenchTable = benchTable

// BenchmarkGetHit is the serving hot path: one cached-table lookup —
// file read, envelope split, SHA-256 checksum, canonical decode. The
// baseline lives in BENCH_STORE.json; bccserve's target of ~10k req/s
// on a laptop rests on this number.
func BenchmarkGetHit(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	k := KeyFor("EB", result.Params{Seed: 1})
	if err := s.Put(k, benchTable(24)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(context.Background(), k); !ok {
			b.Fatal("warmed store missed")
		}
	}
}

// BenchmarkGetMiss is the cost a miss adds before the estimator runs —
// one failed stat. It must stay negligible next to any computation.
func BenchmarkGetMiss(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	k := KeyFor("EB", result.Params{Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(context.Background(), k); ok {
			b.Fatal("empty store hit")
		}
	}
}

// BenchmarkPut is the persistence cost of one fresh computation:
// canonical encode, checksum, atomic temp+rename write, index upsert.
func BenchmarkPut(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	k := KeyFor("EB", result.Params{Seed: 3})
	t := benchTable(24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(k, t); err != nil {
			b.Fatal(err)
		}
	}
}
