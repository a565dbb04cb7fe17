package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/fleet"
)

// workload is one traffic mix. Every input comes from the workload
// seed; every run starts from fresh store directories.
type workload struct {
	name     string
	replicas int
	// setups is how many times a run sets the replicas up from scratch
	// (setup_s is their median); the last rounds of them are measured,
	// and each end-to-end figure is the median over those rounds.
	setups, rounds int
	seconds        int
	// cells are the workload's distinct tables; order is the request
	// order over them, cycled by time-bound windows.
	cells []cell
	order []int
	// fixed marks a workload that requests each cell exactly once and
	// runs the list to completion instead of for a fixed time.
	fixed bool
	// sweep is the corpus grid built by one POST /sweep in set-up.
	sweep string
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64, seconds int) *workload{
	"hot-hits":   hotHits,
	"disk-hits":  diskHits,
	"cold-fleet": coldFleet,
}

// seedBase spreads workload seeds over disjoint ranges of table seeds.
func seedBase(seed uint64) uint64 { return 1 + (seed%1_000_000)*1000 }

// hotIDs are quick tables of a few milliseconds each; eight of them fit
// the default 64-table memory tier many times over.
var hotIDs = []string{"E4", "E7", "E8", "E9", "E10", "E14", "E16", "E17"}

// hotHits is the memory-tier control: set-up computes a few quick
// tables, then GETs cycle over them. Serve, net/http and memlru do all
// the work; compute, disk and fleet do none.
func hotHits(seed uint64, seconds int) *workload {
	w := &workload{name: "hot-hits", replicas: 1, setups: 5, rounds: 1, seconds: seconds}
	for j, id := range hotIDs {
		w.cells = append(w.cells, newCell(id, seedBase(seed)+uint64(j)))
		w.order = append(w.order, j)
	}
	return w
}

// diskIDs are the cheapest quick tables; diskSeeds of each make a
// corpus eight times the default 64-table memory tier.
var diskIDs = []string{"E4", "E10", "E14", "E16"}

const diskSeeds = 128

// diskHits is the working-set-larger-than-cache workload: set-up builds
// a 512-table disk corpus with one POST /sweep, then GETs walk it in a
// seeded cyclic order, so nearly every request misses the memory tier,
// hits disk, and backfills memory.
func diskHits(seed uint64, seconds int) *workload {
	base := seedBase(seed)
	w := &workload{
		name: "disk-hits", replicas: 1, setups: 3, rounds: 1, seconds: seconds,
		sweep: fmt.Sprintf("ids=%s&seeds=%d-%d&quick=true", strings.Join(diskIDs, ","), base, base+diskSeeds-1),
	}
	for _, id := range diskIDs {
		for s := uint64(0); s < diskSeeds; s++ {
			w.cells = append(w.cells, newCell(id, base+s))
		}
	}
	w.order = rand.New(rand.NewPCG(seed, 0x6469736b)).Perm(len(w.cells))
	return w
}

// coldFleet is the time to newly reproduced tables: two replicas share
// one bucket and start empty; each cell of a fixed list (coldIDs ×
// 3/5 × seconds seeds, so 120 cells at 20 s, about 8 s of work on two
// cores) is requested exactly once, half at its owner and half at the
// non-owner. A run measures the list on three fresh fleets, so it
// spends about as long measuring as the time-bound workloads do.
func coldFleet(seed uint64, seconds int) *workload {
	w := &workload{name: "cold-fleet", replicas: 2, setups: 9, rounds: 3, seconds: seconds, fixed: true}
	base := seedBase(seed)
	for s := 0; s < max(1, seconds*3/5); s++ {
		for _, id := range coldIDs {
			w.cells = append(w.cells, newCell(id, base+uint64(s)))
		}
	}
	return w
}

// serverArgs are one bccserve replica's flags.
func (w *workload) serverArgs(addr, dir, bucket string, fleetURLs []string) []string {
	args := []string{"-addr", addr, "-store", dir, "-quick", "-drain", "5s"}
	if w.replicas > 1 {
		args = append(args, "-objstore", bucket, "-fleet", strings.Join(fleetURLs, ","))
	}
	return args
}

// replicaSet is one set-up's running replicas.
type replicaSet struct {
	procs []*process
	urls  []string
	dirs  []string
}

func (rs *replicaSet) stop() {
	for _, p := range rs.procs {
		p.stop()
	}
}

// startReplicas starts the workload's bccserve replicas under dir, each
// with an empty store. Fleet members are started on reserved ports so
// every -fleet list names the final URLs.
func (w *workload) startReplicas(bin, dir string) (*replicaSet, error) {
	rs := &replicaSet{}
	addrs := []string{"127.0.0.1:0"}
	if w.replicas > 1 {
		var err error
		if addrs, err = reservePorts(w.replicas); err != nil {
			return nil, err
		}
	}
	urls := make([]string, len(addrs))
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	bucket := filepath.Join(dir, "bucket")
	for i, a := range addrs {
		rs.dirs = append(rs.dirs, filepath.Join(dir, fmt.Sprintf("store-%d", i)))
		// Each member lists itself first.
		members := append([]string{urls[i]}, append(append([]string(nil), urls[:i]...), urls[i+1:]...)...)
		p, url, err := startReplica(bin, w.serverArgs(a, rs.dirs[i], bucket, members))
		if err != nil {
			rs.stop()
			return nil, err
		}
		rs.procs = append(rs.procs, p)
		rs.urls = append(rs.urls, url)
	}
	return rs, nil
}

// prepare is the workload's set-up traffic against ready replicas: the
// warm pass (hot-hits), the corpus sweep (disk-hits), or the cold check
// (cold-fleet: every cell must probe cold on every replica). It returns
// the sweep's cells per second (0 without a sweep).
func (w *workload) prepare(client *http.Client, g *gate, urls []string) (float64, error) {
	switch {
	case w.sweep != "":
		return w.corpusSweep(client, g, urls[0])
	case w.fixed:
		for _, c := range w.cells {
			for _, u := range urls {
				req, err := http.NewRequest(http.MethodHead, u+c.path(), nil)
				if err != nil {
					return 0, err
				}
				resp, err := client.Do(req)
				if err != nil {
					return 0, fmt.Errorf("probing %s: %w", c.path(), err)
				}
				resp.Body.Close()
				g.record(resp.StatusCode == http.StatusNotFound, "HEAD %s on a fresh replica: status %d, want 404", c.path(), resp.StatusCode)
			}
		}
	default:
		var buf bytes.Buffer
		for _, c := range w.cells {
			get(client, g, urls[0], c, &buf)
		}
	}
	return 0, nil
}

// sweepRow is one NDJSON row of a POST /sweep stream.
type sweepRow struct {
	Cell *struct {
		ID          string `json:"id"`
		Seed        uint64 `json:"seed"`
		Fingerprint string `json:"fingerprint"`
		Status      string `json:"status"`
	} `json:"cell"`
	Summary *struct {
		Cells int `json:"cells"`
	} `json:"summary"`
}

// corpusSweep builds the disk corpus with one POST /sweep and checks
// that every cell was computed under its own fingerprint.
func (w *workload) corpusSweep(client *http.Client, g *gate, base string) (float64, error) {
	want := map[string]string{}
	for _, c := range w.cells {
		want[fmt.Sprintf("%s/%d", c.ID, c.Seed)] = c.Key.Fingerprint
	}
	t0 := time.Now()
	resp, err := client.Post(base+"/sweep?"+w.sweep, "", nil)
	if err != nil {
		return 0, fmt.Errorf("corpus sweep: %w", err)
	}
	defer resp.Body.Close()
	if !g.record(resp.StatusCode == http.StatusOK, "POST /sweep: status %d", resp.StatusCode) {
		return 0, nil
	}
	computed, summary := 0, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row sweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return 0, fmt.Errorf("corpus sweep row: %w", err)
		}
		switch {
		case row.Cell != nil:
			key := fmt.Sprintf("%s/%d", row.Cell.ID, row.Cell.Seed)
			if row.Cell.Status == "computed" && want[key] == row.Cell.Fingerprint {
				computed++
			}
		case row.Summary != nil:
			summary = row.Summary.Cells
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("corpus sweep: %w", err)
	}
	elapsed := time.Since(t0)
	g.record(computed == len(w.cells) && summary == len(w.cells),
		"POST /sweep: %d of %d cells computed under their fingerprints (summary %d)", computed, len(w.cells), summary)
	return float64(computed) / elapsed.Seconds(), nil
}

// route returns each request of the window: time-bound workloads cycle
// the request order against the first replica; cold-fleet sends even
// cells to their rendezvous owner and odd cells to the other replica,
// with the owner computed by fleet.Owner over the actual member URLs.
func (w *workload) route(urls []string) (func(i int) target, error) {
	if !w.fixed {
		return func(i int) target {
			return target{base: urls[0], c: w.cells[w.order[i%len(w.order)]]}
		}, nil
	}
	f, err := fleet.New(urls[0], urls[1:])
	if err != nil {
		return nil, err
	}
	targets := make([]target, len(w.cells))
	for i, c := range w.cells {
		owner := f.Owner(c.Key.Fingerprint)
		base := owner
		if i%2 == 1 {
			for _, u := range urls {
				if u != owner {
					base = u
					break
				}
			}
		}
		targets[i] = target{base: base, c: c}
	}
	return func(i int) target { return targets[i] }, nil
}

// measure runs the workload's measured window.
// cpu, if non-nil, samples the servers' CPU time for per-slice figures.
func (w *workload) measure(client *http.Client, g *gate, urls []string, cpu func() time.Duration) (loopResult, error) {
	next, err := w.route(urls)
	if err != nil {
		return loopResult{}, err
	}
	if w.fixed {
		return closedLoop(client, g, next, len(w.cells), 0, nil), nil
	}
	return closedLoop(client, g, next, 0, float64(w.seconds), cpu), nil
}

// verifyFleet re-reads every cell from every replica after the window:
// each must now be served, byte-identical to the body the window got.
func (w *workload) verifyFleet(client *http.Client, g *gate, urls []string) {
	var buf bytes.Buffer
	for _, c := range w.cells {
		for _, u := range urls {
			get(client, g, u, c, &buf)
		}
	}
}

// round is one measured window of the untraced bccserve run.
type round struct {
	loop   loopResult
	cpu    time.Duration
	rss    float64 // bytes: median sampled resident set of the largest replica
	before []serverStats
	after  []serverStats
}

// timedRun is what the untraced bccserve run measured.
type timedRun struct {
	setup      []float64 // seconds per set-up
	sweepRates []float64 // corpus sweep cells/s per set-up
	rounds     []round
	indexBytes int64
	args       [][]string
}

// runTimed sets the workload up w.setups times against real bccserve
// processes and measures a window on each of the last w.rounds.
func runTimed(w *workload, bin, runDir string, g *gate) (*timedRun, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	tr := &timedRun{}
	for r := 0; r < w.setups; r++ {
		dir := filepath.Join(runDir, fmt.Sprintf("timed-%d", r))
		t0 := time.Now()
		set, err := w.startReplicas(bin, dir)
		if err != nil {
			return nil, err
		}
		rate, err := w.prepare(client, g, set.urls)
		tr.setup = append(tr.setup, time.Since(t0).Seconds())
		tr.sweepRates = append(tr.sweepRates, rate)
		if err == nil && r >= w.setups-w.rounds {
			err = tr.measure(w, client, g, set)
		}
		set.stop()
		client.CloseIdleConnections()
		// Dropping a finished set-up's files at once keeps their
		// writeback out of later windows.
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// measure runs one window on a set-up's replicas and records it.
func (tr *timedRun) measure(w *workload, client *http.Client, g *gate, rs *replicaSet) error {
	var rd round
	var err error
	if rd.before, err = fetchStats(client, rs.urls); err != nil {
		return err
	}
	cpu0, err := rs.cpu()
	if err != nil {
		return err
	}
	sample := func() time.Duration {
		d, _ := rs.cpu()
		return d
	}
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go func() { rssDone <- rs.sampleRSS(stopRSS) }()
	rd.loop, err = w.measure(client, g, rs.urls, sample)
	close(stopRSS)
	rd.rss = median(<-rssDone)
	if err != nil {
		return err
	}
	cpu1, err := rs.cpu()
	if err != nil {
		return err
	}
	rd.cpu = cpu1 - cpu0
	if rd.after, err = fetchStats(client, rs.urls); err != nil {
		return err
	}
	if w.fixed {
		computed := sumStats(rd.after, func(s serverStats) float64 { return float64(s.Sched.Computed) }) -
			sumStats(rd.before, func(s serverStats) float64 { return float64(s.Sched.Computed) })
		g.record(int(computed) == len(w.cells), "compute-once: %v computations fleet-wide for %d cells", computed, len(w.cells))
		w.verifyFleet(client, g, rs.urls)
	}
	for _, d := range rs.dirs {
		if fi, err := os.Stat(filepath.Join(d, "index.json")); err == nil {
			tr.indexBytes = max(tr.indexBytes, fi.Size())
		}
	}
	tr.args = nil
	for _, p := range rs.procs {
		tr.args = append(tr.args, p.args)
	}
	tr.rounds = append(tr.rounds, rd)
	return nil
}

// rssInterval is how often sampleRSS reads the replicas' resident sets.
const rssInterval = 100 * time.Millisecond

// sampleRSS reads every replica's resident set each rssInterval until
// stop closes and returns the largest replica's size at each sample.
func (rs *replicaSet) sampleRSS(stop <-chan struct{}) []float64 {
	tick := time.NewTicker(rssInterval)
	defer tick.Stop()
	var samples []float64
	for {
		largest := int64(0)
		for _, p := range rs.procs {
			if n, err := residentSet(p.cmd.Process.Pid); err == nil {
				largest = max(largest, n)
			}
		}
		samples = append(samples, float64(largest))
		select {
		case <-stop:
			return samples
		case <-tick.C:
		}
	}
}

// cpu returns the replicas' summed CPU time.
func (rs *replicaSet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range rs.procs {
		d, err := cpuTime(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// endToEnd derives the --trace 0 metrics: each is the median over the
// measured rounds.
func (tr *timedRun) endToEnd() map[string]float64 {
	per := func(f func(round) float64) float64 {
		v := make([]float64, len(tr.rounds))
		for i, r := range tr.rounds {
			v[i] = f(r)
		}
		return median(v)
	}
	return map[string]float64{
		"setup_s":              median(tr.setup),
		"ops_per_s":            per(func(r round) float64 { return r.loop.rate() }),
		"p50_ms":               per(func(r round) float64 { return r.loop.latency(0.5) }),
		"p90_ms":               per(func(r round) float64 { return r.loop.latency(0.9) }),
		"server_cpu_us_per_op": per(func(r round) float64 { return r.loop.cpuPerOp(r.cpu) }),
		"server_rss_mb":        per(func(r round) float64 { return r.rss }) / (1 << 20),
	}
}

// opsAndBytes sums the passed requests and their body bytes over the
// measured rounds.
func (tr *timedRun) opsAndBytes() (ops, bytes int64) {
	for _, r := range tr.rounds {
		ops += r.loop.ops
		bytes += r.loop.bytes
	}
	return ops, bytes
}
