package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/result"
	"repro/internal/store"
	"repro/internal/store/memlru"
)

// serverStats is the part of bccserve's /stats the per-layer counters
// read.
type serverStats struct {
	Sched struct {
		Rejected        uint64  `json:"rejected"`
		Computed        uint64  `json:"computed"`
		ComputedForeign uint64  `json:"computed_foreign"`
		TotalBusyMS     float64 `json:"total_busy_ms"`
	} `json:"sched"`
	Store struct {
		Puts uint64 `json:"puts"`
	} `json:"store"`
	Memory struct {
		Evictions uint64 `json:"evictions"`
	} `json:"memory"`
	Tiers []struct {
		Name      string `json:"name"`
		Hits      uint64 `json:"hits"`
		Backfills uint64 `json:"backfills"`
	} `json:"tiers"`
	Objstore struct {
		Hits      uint64 `json:"hits"`
		Errors    uint64 `json:"errors"`
		Puts      uint64 `json:"puts"`
		PutErrors uint64 `json:"put_errors"`
	} `json:"objstore"`
	Fleet struct {
		SharedHits uint64 `json:"shared_hits"`
		Proxied    uint64 `json:"proxied"`
		Waits      uint64 `json:"waits"`
		Fallbacks  uint64 `json:"fallbacks"`
	} `json:"fleet"`
	Breakers map[string]struct {
		Opens uint64 `json:"opens"`
	} `json:"breakers"`
}

func fetchStats(client *http.Client, urls []string) ([]serverStats, error) {
	out := make([]serverStats, len(urls))
	for i, u := range urls {
		resp, err := client.Get(u + "/stats")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/stats: %w", u, err)
		}
	}
	return out, nil
}

func sumStats(all []serverStats, f func(serverStats) float64) float64 {
	total := 0.0
	for _, s := range all {
		total += f(s)
	}
	return total
}

// tierHits returns a tier's hits (or backfills) from the tiers block.
func tierCount(name string, backfills bool) func(serverStats) float64 {
	return func(s serverStats) float64 {
		for _, t := range s.Tiers {
			if t.Name == name {
				if backfills {
					return float64(t.Backfills)
				}
				return float64(t.Hits)
			}
		}
		return 0
	}
}

// layerMetrics assembles the --trace 1 metrics: /stats counter deltas
// of the timed run (per operation where the name says so), span
// statistics of the traced run, and the replayed layer calls.
func layerMetrics(tr *timedRun, traced, replayed map[string]float64) map[string]float64 {
	n, bytes := tr.opsAndBytes()
	ops := float64(max(n, 1))
	// delta sums a counter's change over every measured round.
	delta := func(f func(serverStats) float64) float64 {
		total := 0.0
		for _, r := range tr.rounds {
			total += sumStats(r.after, f) - sumStats(r.before, f)
		}
		return total
	}
	m := map[string]float64{}
	for k, v := range traced {
		m[k] = v
	}
	for k, v := range replayed {
		m[k] = v
	}
	computed := delta(func(s serverStats) float64 { return float64(s.Sched.Computed) })
	m["serve.resp_bytes_per_op"] = float64(bytes) / ops
	m["sched.computed_per_op"] = computed / ops
	m["sched.compute_ms_mean"] = 0
	if computed > 0 {
		m["sched.compute_ms_mean"] = delta(func(s serverStats) float64 { return s.Sched.TotalBusyMS }) / computed
	}
	m["sched.rejected"] = delta(func(s serverStats) float64 { return float64(s.Sched.Rejected) })
	m["sched.computed_foreign"] = delta(func(s serverStats) float64 { return float64(s.Sched.ComputedForeign) })
	for _, name := range []string{"memory", "disk", "objstore"} {
		m["tier."+name+".hits_per_op"] = delta(tierCount(name, false)) / ops
	}
	m["tier.memory.backfills_per_op"] = delta(tierCount("memory", true)) / ops
	m["memlru.evictions_per_op"] = delta(func(s serverStats) float64 { return float64(s.Memory.Evictions) }) / ops
	m["store.puts_per_op"] = delta(func(s serverStats) float64 { return float64(s.Store.Puts) }) / ops
	m["store.index_bytes"] = float64(tr.indexBytes)
	m["objstore.hits_per_op"] = delta(func(s serverStats) float64 { return float64(s.Objstore.Hits) }) / ops
	m["objstore.puts_per_op"] = delta(func(s serverStats) float64 { return float64(s.Objstore.Puts) }) / ops
	m["objstore.errors"] = delta(func(s serverStats) float64 { return float64(s.Objstore.Errors + s.Objstore.PutErrors) })
	m["fleet.proxied_per_op"] = delta(func(s serverStats) float64 { return float64(s.Fleet.Proxied) }) / ops
	m["fleet.shared_hits_per_op"] = delta(func(s serverStats) float64 { return float64(s.Fleet.SharedHits) }) / ops
	m["fleet.waits"] = delta(func(s serverStats) float64 { return float64(s.Fleet.Waits) })
	m["fleet.fallbacks"] = delta(func(s serverStats) float64 { return float64(s.Fleet.Fallbacks) })
	m["breaker.open"] = delta(func(s serverStats) float64 {
		opens := 0.0
		for _, b := range s.Breakers {
			opens += float64(b.Opens)
		}
		return opens
	})
	m["sweep.cells_per_s"] = median(tr.sweepRates)
	// Seams a workload never crosses (no fleet on hot-hits, say) have
	// no samples and report 0.
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	return m
}

// Replay sizes: timed calls per replayed function, memlru calls per
// clock read (a Get takes nanoseconds) and batches of them, and the
// fewest store Puts to time.
const (
	replayCalls   = 2000
	memlruBatch   = 256
	memlruBatches = 64
	replayPutMin  = 64
)

// replay calls each layer's public function on the workload's own keys
// and tables (the bodies the gate accepted) and reports the median
// call: memlru.Get over the request order against a default-size
// cache, store.Put and store.Get against a fresh disk store,
// result.DecodeJSON on the served bodies, and CanonicalJSON on freshly
// decoded tables.
func replay(w *workload, g *gate, runDir string) map[string]float64 {
	var keys []store.Key
	var bodies [][]byte
	var tables []*result.Table
	for _, c := range w.cells {
		if b, ok := g.body(c.Key.Fingerprint); ok {
			keys = append(keys, c.Key)
			bodies = append(bodies, b.body)
			tables = append(tables, b.table)
		}
	}
	m := map[string]float64{}
	if len(keys) == 0 {
		return m
	}
	order := w.order
	if len(order) == 0 || len(order) != len(keys) {
		order = make([]int, len(keys))
		for i := range order {
			order[i] = i
		}
	}

	ctx := context.Background()
	mem, _ := memlru.New(64)
	for _, i := range order {
		mem.Put(keys[i], tables[i])
	}
	var perCall []float64
	for b := 0; b < memlruBatches; b++ {
		t0 := time.Now()
		for j := 0; j < memlruBatch; j++ {
			mem.Get(ctx, keys[order[(b*memlruBatch+j)%len(order)]])
		}
		perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/memlruBatch)
	}
	m["memlru.get_ns"] = median(perCall)

	var puts, gets []float64
	for r := 0; len(puts) < replayPutMin || r == 0; r++ {
		st, err := store.Open(filepath.Join(runDir, fmt.Sprintf("replay-%d", r)))
		if err != nil {
			break
		}
		for _, i := range order {
			fresh, err := result.DecodeJSON(bytes.NewReader(bodies[i]))
			if err != nil {
				continue
			}
			t0 := time.Now()
			st.Put(keys[i], fresh)
			puts = append(puts, ms(time.Since(t0)))
		}
		if r == 0 {
			for n := 0; n < replayCalls/4; n++ {
				k := keys[order[n%len(order)]]
				t0 := time.Now()
				st.Get(ctx, k)
				gets = append(gets, us(time.Since(t0)))
			}
		}
		os.RemoveAll(st.Dir())
	}
	m["store.put_ms"] = median(puts)
	m["store.get_us"] = median(gets)

	var decodes, encodes []float64
	for n := 0; n < replayCalls; n++ {
		body := bodies[order[n%len(order)]]
		t0 := time.Now()
		tab, err := result.DecodeJSON(bytes.NewReader(body))
		decodes = append(decodes, us(time.Since(t0)))
		if err != nil {
			continue
		}
		t0 = time.Now()
		tab.CanonicalJSON()
		encodes = append(encodes, us(time.Since(t0)))
	}
	m["result.decode_us"] = median(decodes)
	m["result.encode_us"] = median(encodes)
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
