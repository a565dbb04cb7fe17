package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/result"
	"repro/internal/store"
)

// cell is one table request: an experiment id at a seed, quick mode.
type cell struct {
	ID   string
	Seed uint64
	Key  store.Key
}

func newCell(id string, seed uint64) cell {
	return cell{ID: id, Seed: seed, Key: store.KeyFor(id, result.Params{Seed: seed, Quick: true})}
}

func (c cell) path() string {
	return fmt.Sprintf("/tables/%s?seed=%d&quick=true", c.ID, c.Seed)
}

// clients is the closed loop's concurrency: one connection per CPU, at
// most two, so the generator never outnumbers the cores it shares with
// the servers.
func clients() int { return min(2, runtime.NumCPU()) }

// newClient returns a keep-alive client for the closed loop.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients(),
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}}
}

// seenBody is the first body the gate accepted for one fingerprint.
type seenBody struct {
	body  []byte
	table *result.Table
}

// gate is the correctness gate: every response of every run passes
// through check, and one violation fails the run.
type gate struct {
	attempted, failed atomic.Int64

	mu   sync.Mutex
	seen map[string]seenBody
	errs []string
}

func newGate() *gate { return &gate{seen: map[string]seenBody{}} }

// maxReported caps the violation messages kept for the report.
const maxReported = 8

func (g *gate) fail(format string, args ...any) {
	g.failed.Add(1)
	g.mu.Lock()
	if len(g.errs) < maxReported {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// check verifies one table response: status 200, X-Fingerprint equal to
// the key's fingerprint, a body that decodes through result.DecodeJSON
// to the requested id, and bytes identical to every earlier body for
// the same key — across requests, replicas and processes. It reports
// whether the response passed.
func (g *gate) check(c cell, status int, fp string, body []byte) bool {
	g.attempted.Add(1)
	if status != http.StatusOK {
		g.fail("%s: status %d: %.200s", c.path(), status, body)
		return false
	}
	if fp != c.Key.Fingerprint {
		g.fail("%s: X-Fingerprint %q, want %q", c.path(), fp, c.Key.Fingerprint)
		return false
	}
	g.mu.Lock()
	first, ok := g.seen[c.Key.Fingerprint]
	g.mu.Unlock()
	if ok {
		// Byte identity with an already decoded body implies the decode
		// check too, so steady-state checking costs one compare.
		if !bytes.Equal(body, first.body) {
			g.fail("%s: body differs from the first body served for this key", c.path())
			return false
		}
		return true
	}
	tab, err := result.DecodeJSON(bytes.NewReader(body))
	if err != nil {
		g.fail("%s: %v", c.path(), err)
		return false
	}
	if tab.ID != c.ID {
		g.fail("%s: body is table %q", c.path(), tab.ID)
		return false
	}
	g.mu.Lock()
	if first, ok := g.seen[c.Key.Fingerprint]; ok && !bytes.Equal(body, first.body) {
		g.mu.Unlock()
		g.fail("%s: body differs from the first body served for this key", c.path())
		return false
	}
	g.seen[c.Key.Fingerprint] = seenBody{body: bytes.Clone(body), table: tab}
	g.mu.Unlock()
	return true
}

// record counts a non-table operation (a sweep, a probe) and its
// verdict.
func (g *gate) record(ok bool, format string, args ...any) bool {
	g.attempted.Add(1)
	if !ok {
		g.fail(format, args...)
	}
	return ok
}

func (g *gate) counts() (attempted, failed int64) {
	return g.attempted.Load(), g.failed.Load()
}

func (g *gate) errors() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.errs...)
}

func (g *gate) body(fp string) (seenBody, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.seen[fp]
	return b, ok
}

// get requests one table from base and passes the response through the
// gate. It returns the body length and whether the response passed.
func get(client *http.Client, g *gate, base string, c cell, buf *bytes.Buffer) (int, bool) {
	resp, err := client.Get(base + c.path())
	if err != nil {
		g.attempted.Add(1)
		g.fail("%s: %v", c.path(), err)
		return 0, false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		g.attempted.Add(1)
		g.fail("%s: reading body: %v", c.path(), err)
		return 0, false
	}
	return buf.Len(), g.check(c, resp.StatusCode, resp.Header.Get("X-Fingerprint"), buf.Bytes())
}

// target is one request of a closed loop: which replica, which table.
type target struct {
	base string
	c    cell
}

// loopResult is what one closed-loop window measured.
type loopResult struct {
	ops       int64           // requests that passed the gate
	bytes     int64           // body bytes of those requests
	wall      time.Duration   // first send to last completion
	latencies []time.Duration // passed requests only
	// slices splits a time-bound window into one-second slices.
	slices []slice
}

// slice is one second of a time-bound window: the latencies (ms) of the
// passed requests that completed in it and the servers' CPU time.
type slice struct {
	lat []float64
	cpu time.Duration
}

// closedLoop sends requests from clients() workers, each sending its
// next request only when the previous one completed. next(i) names the
// i-th request. With seconds > 0 the loop stops issuing after that
// many seconds, and cpu (if non-nil) is sampled at every one-second
// slice boundary; otherwise it stops after n requests.
func closedLoop(client *http.Client, g *gate, next func(i int) target, n int, seconds float64, cpu func() time.Duration) loopResult {
	c := clients()
	var idx atomic.Int64
	type workerOut struct {
		lat   []time.Duration
		ends  []time.Duration
		bytes int64
	}
	outs := make([]workerOut, c)
	nslices := int(seconds)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	cpuMarks := make([]time.Duration, 0, nslices+1)
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if cpu == nil {
			return
		}
		for k := 0; k <= nslices; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * time.Second)))
			cpuMarks = append(cpuMarks, cpu())
		}
	}()
	var wg sync.WaitGroup
	for w := range outs {
		wg.Add(1)
		go func(out *workerOut) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(idx.Add(1) - 1)
				if seconds > 0 {
					if !time.Now().Before(deadline) {
						return
					}
				} else if i >= n {
					return
				}
				t := next(i)
				t0 := time.Now()
				size, ok := get(client, g, t.base, t.c, &buf)
				t1 := time.Now()
				if ok {
					out.lat = append(out.lat, t1.Sub(t0))
					out.ends = append(out.ends, t1.Sub(start))
					out.bytes += int64(size)
				}
			}
		}(&outs[w])
	}
	wg.Wait()
	res := loopResult{wall: time.Since(start), slices: make([]slice, nslices)}
	<-sampled
	for _, o := range outs {
		res.ops += int64(len(o.lat))
		res.bytes += o.bytes
		res.latencies = append(res.latencies, o.lat...)
		for j, e := range o.ends {
			if k := int(e / time.Second); k < nslices {
				res.slices[k].lat = append(res.slices[k].lat, float64(o.lat[j].Nanoseconds())/1e6)
			}
		}
	}
	for k := 0; k+1 < len(cpuMarks) && k < nslices; k++ {
		res.slices[k].cpu = cpuMarks[k+1] - cpuMarks[k]
	}
	return res
}

// The window's figures. A time-bound window reports the median over its
// one-second slices of each figure — throughput, a latency quantile, CPU
// per operation — so a stall or a burst of noise from other tenants of
// a shared host in a few slices does not move the result. A fixed list
// reports its whole run.

func (r loopResult) rate() float64 {
	if len(r.slices) == 0 {
		return float64(r.ops) / r.wall.Seconds()
	}
	return r.perSlice(func(s slice) float64 { return float64(len(s.lat)) })
}

func (r loopResult) latency(q float64) float64 {
	if len(r.slices) == 0 {
		return quantile(durationsMS(r.latencies), q)
	}
	return r.perSlice(func(s slice) float64 { return quantile(s.lat, q) })
}

func (r loopResult) cpuPerOp(total time.Duration) float64 {
	if len(r.slices) == 0 {
		return float64(total.Microseconds()) / float64(max(r.ops, 1))
	}
	return r.perSlice(func(s slice) float64 { return float64(s.cpu.Microseconds()) / float64(max(len(s.lat), 1)) })
}

// perSlice returns the median over the slices of f.
func (r loopResult) perSlice(f func(slice) float64) float64 {
	v := make([]float64, len(r.slices))
	for i, s := range r.slices {
		v[i] = f(s)
	}
	return median(v)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the nearest-rank q-quantile of v (0 for no values).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func durationsMS(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x.Nanoseconds()) / 1e6
	}
	return out
}
