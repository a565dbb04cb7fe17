package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/store/objstore"
	"repro/internal/store/remote"
	"repro/internal/store/tier"
)

// childArg makes the perfbench binary run as the in-process assembly: the
// traced run's server side lives in its own process, so its allocation
// and encode counters see the servers and not the generator.
const childArg = "--in-process-replicas"

// childConfig is the in-process assembly's configuration, passed as
// one JSON argument.
type childConfig struct {
	// Traced installs the span wrappers; without it the assembly is
	// cmd/bccserve's wiring unchanged (the trace-overhead baseline).
	Traced bool `json:"traced"`
	// Dirs holds one empty store directory per replica; two or more
	// replicas form a fleet over the shared Bucket.
	Dirs   []string `json:"dirs"`
	Bucket string   `json:"bucket,omitempty"`
}

// exitIfChild runs the in-process assembly and exits when the process
// was started as one.
func exitIfChild() {
	if len(os.Args) < 2 || os.Args[1] != childArg {
		return
	}
	if err := childMain(os.Args[2:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench in-process replicas:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// The child speaks a line protocol: it prints "ready URL[,URL]" once
// every replica listens; on stdin, "mark" snapshots the process
// counters (answered "mark") and "dump" prints "dump {json}" with the
// span statistics between the first and last marks; EOF shuts it down.
func childMain(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("want one JSON config argument")
	}
	var cfg childConfig
	if err := json.Unmarshal([]byte(args[0]), &cfg); err != nil {
		return err
	}
	var rec *recorder
	if cfg.Traced {
		rec = &recorder{base: time.Now()}
	}
	lns := make([]net.Listener, len(cfg.Dirs))
	urls := make([]string, len(cfg.Dirs))
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	servers := make([]*http.Server, len(lns))
	for i, ln := range lns {
		h, err := assemble(i, cfg, urls, rec)
		if err != nil {
			return err
		}
		servers[i] = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 120 * time.Second}
		go servers[i].Serve(ln)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	fmt.Fprintf(stdout, "ready %s\n", strings.Join(urls, ","))

	var marks []mark
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		switch sc.Text() {
		case "mark":
			marks = append(marks, takeMark(rec))
			fmt.Fprintln(stdout, "mark")
		case "dump":
			if rec == nil || len(marks) < 2 {
				return fmt.Errorf("dump needs a traced assembly and two marks")
			}
			blob, err := json.Marshal(rec.summary(marks[0], marks[len(marks)-1]))
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "dump %s\n", blob)
		}
	}
	return sc.Err()
}

// assemble builds replica i the way cmd/bccserve does with its default
// flags plus -quick (and -objstore/-fleet for a fleet), wrapping the
// public seams when rec is non-nil: the handler from Server.Handler,
// each registry entry's Run, the store.Backend handed to sched.New, the
// bucket client, and the fleet client's transport.
func assemble(i int, cfg childConfig, urls []string, rec *recorder) (http.Handler, error) {
	breakers := breaker.NewSet(breaker.Options{Failures: 5, Cooldown: 10 * time.Second})
	tc := tier.Config{
		MemCapacity: 64, Dir: cfg.Dirs[i],
		ObjstorePutTimeout: objstore.DefaultPutTimeout, PeerTimeout: remote.DefaultTimeout,
		Breakers: breakers,
	}
	var flt *fleet.Fleet
	if len(cfg.Dirs) > 1 {
		tc.ObjstoreDir = cfg.Bucket
		if rec != nil {
			fsc, err := objstore.NewFS(cfg.Bucket)
			if err != nil {
				return nil, err
			}
			tc.ObjstoreClient = &tracedObjects{inner: fsc, rec: rec, replica: i}
		}
		peers := append(append([]string(nil), urls[:i]...), urls[i+1:]...)
		var err error
		if flt, err = fleet.New(urls[i], peers); err != nil {
			return nil, err
		}
	}
	stack, err := tier.NewStack(tc)
	if err != nil {
		return nil, err
	}
	opts := []sched.Option{sched.WithQueue(16)}
	if flt != nil {
		opts = append(opts, sched.WithOwner(flt.Owns))
	}
	const parallel = 2
	srv := &serve.Server{
		Stack: stack, Registry: experiments.All, Seed: 2019, Quick: true,
		Workers: max(1, runtime.GOMAXPROCS(0)/parallel), Fleet: flt, Breakers: breakers,
	}
	if rec == nil {
		srv.Sched = sched.New(stack.Backend, parallel, opts...)
		return srv.Handler(), nil
	}
	srv.Sched = sched.New(&tracedBackend{inner: stack.Backend, rec: rec, replica: i}, parallel, opts...)
	srv.Registry = rec.registry(i, experiments.All())
	srv.FleetClient = &http.Client{Transport: &tracedTransport{
		// The same pool settings as serve's default fleet client.
		inner: &http.Transport{MaxIdleConns: 32, MaxIdleConnsPerHost: 8, IdleConnTimeout: 90 * time.Second},
		rec:   rec, replica: i,
	}}
	return rec.handler(i, srv.Handler()), nil
}

// mark is one snapshot of the child's counters.
type mark struct {
	at             int64 // ns since the recorder's base
	mallocs, bytes uint64
	encodes        uint64
}

func takeMark(rec *recorder) mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := mark{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, encodes: result.Encodes()}
	if rec != nil {
		m.at = rec.now()
	}
	return m
}

type spanKind uint8

const (
	spanHandler spanKind = iota
	spanTierGet
	spanTierPut
	spanRun
	spanObjGet
	spanObjPut
	spanProbe
	spanProxy
)

// span is one call across a seam. Calls that carry the request context
// have its request id; the rest (Put, Run, the bucket write) are
// matched to their request by fingerprint.
type span struct {
	kind       spanKind
	replica    int
	rid        uint64
	fp         string
	id         string // experiment id of a Run span
	target     string // path and query of a handler span
	client     bool   // handler span of a generator request
	start, end int64  // ns since the recorder's base
}

// recorder keeps spans in memory until the dump.
type recorder struct {
	base   time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

type ridKey struct{}

func ridOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(ridKey{}).(uint64)
	return id
}

func (r *recorder) handler(replica int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rid := r.nextID.Add(1)
		start := r.now()
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), ridKey{}, rid)))
		r.add(span{
			kind: spanHandler, replica: replica, rid: rid,
			target: req.URL.RequestURI(),
			client: req.Method == http.MethodGet && req.Header.Get("X-Fleet-Proxy") == "",
			start:  start, end: r.now(),
		})
	})
}

// registry wraps every experiment's Run. It returns a fresh slice per
// call, as experiments.All does.
func (r *recorder) registry(replica int, exps []experiments.Experiment) func() []experiments.Experiment {
	for i := range exps {
		id, run := exps[i].ID, exps[i].Run
		exps[i].Run = func(cfg experiments.Config) (*result.Table, error) {
			start := r.now()
			t, err := run(cfg)
			r.add(span{kind: spanRun, replica: replica, fp: cfg.Fingerprint(id), id: id, start: start, end: r.now()})
			return t, err
		}
	}
	return func() []experiments.Experiment { return append([]experiments.Experiment(nil), exps...) }
}

// tracedBackend wraps the scheduler's store.Backend. It keeps GetTier,
// so the scheduler still learns the answering tier (X-Cache-Tier).
type tracedBackend struct {
	inner   store.Backend
	rec     *recorder
	replica int
}

func (b *tracedBackend) Name() string { return b.inner.Name() }

func (b *tracedBackend) Get(ctx context.Context, k store.Key) (*result.Table, bool) {
	t, _, ok := b.GetTier(ctx, k)
	return t, ok
}

func (b *tracedBackend) GetTier(ctx context.Context, k store.Key) (*result.Table, string, bool) {
	start := b.rec.now()
	var t *result.Table
	var name string
	var ok bool
	if tg, isTiered := b.inner.(interface {
		GetTier(context.Context, store.Key) (*result.Table, string, bool)
	}); isTiered {
		t, name, ok = tg.GetTier(ctx, k)
	} else {
		t, ok = b.inner.Get(ctx, k)
		name = b.inner.Name()
	}
	b.rec.add(span{kind: spanTierGet, replica: b.replica, rid: ridOf(ctx), fp: k.Fingerprint, start: start, end: b.rec.now()})
	return t, name, ok
}

func (b *tracedBackend) Put(k store.Key, t *result.Table) error {
	start := b.rec.now()
	err := b.inner.Put(k, t)
	b.rec.add(span{kind: spanTierPut, replica: b.replica, fp: k.Fingerprint, start: start, end: b.rec.now()})
	return err
}

// tracedObjects wraps the shared bucket client.
type tracedObjects struct {
	inner   objstore.ObjectClient
	rec     *recorder
	replica int
}

func (o *tracedObjects) Name() string { return o.inner.Name() }

func (o *tracedObjects) Get(ctx context.Context, key string) ([]byte, error) {
	start := o.rec.now()
	b, err := o.inner.Get(ctx, key)
	o.rec.add(span{kind: spanObjGet, replica: o.replica, rid: ridOf(ctx), fp: strings.TrimSuffix(key, ".json"), start: start, end: o.rec.now()})
	return b, err
}

func (o *tracedObjects) Put(ctx context.Context, key string, data []byte) error {
	start := o.rec.now()
	err := o.inner.Put(ctx, key, data)
	o.rec.add(span{kind: spanObjPut, replica: o.replica, fp: strings.TrimSuffix(key, ".json"), start: start, end: o.rec.now()})
	return err
}

// tracedTransport wraps the fleet client: HEAD is the owner probe, GET
// the proxied request, whose span ends when its body is closed.
type tracedTransport struct {
	inner   http.RoundTripper
	rec     *recorder
	replica int
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := span{kind: spanProxy, replica: t.replica, rid: ridOf(req.Context()), start: t.rec.now()}
	if req.Method == http.MethodHead {
		s.kind = spanProbe
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil || s.kind == spanProbe {
		s.end = t.rec.now()
		t.rec.add(s)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.end = t.rec.now()
		t.rec.add(s)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// fingerprintOf returns the fingerprint a /tables/{id} request names.
func fingerprintOf(target string) (string, bool) {
	u, err := url.Parse(target)
	if err != nil {
		return "", false
	}
	id, ok := strings.CutPrefix(u.Path, "/tables/")
	if !ok || id == "" {
		return "", false
	}
	q := u.Query()
	seed, err1 := strconv.ParseUint(q.Get("seed"), 10, 64)
	quick, err2 := strconv.ParseBool(q.Get("quick"))
	if err1 != nil || err2 != nil {
		return "", false
	}
	return store.KeyFor(id, result.Params{Seed: seed, Quick: quick}).Fingerprint, true
}

// ridSeam and fpSeam index spans by request id or fingerprint, per
// replica.
type (
	ridSeam struct {
		replica int
		rid     uint64
	}
	fpSeam struct {
		replica int
		fp      string
	}
)

// summary computes the span statistics of the window between two
// marks, plus the raw counter deltas the parent divides by operations.
func (r *recorder) summary(from, to mark) map[string]float64 {
	m := map[string]float64{
		"mallocs":     float64(to.mallocs - from.mallocs),
		"alloc_bytes": float64(to.bytes - from.bytes),
		"encodes":     float64(to.encodes - from.encodes),
	}
	r.mu.Lock()
	var spans []span
	for _, s := range r.spans {
		if s.start >= from.at && s.end <= to.at {
			spans = append(spans, s)
		}
	}
	r.mu.Unlock()

	byRid := map[ridSeam][]span{}
	byFP := map[fpSeam][]span{}
	samples := map[string][]float64{}
	for _, s := range spans {
		d := s.end - s.start
		switch s.kind {
		case spanTierGet:
			samples["tier.get_us"] = append(samples["tier.get_us"], float64(d)/1e3)
		case spanTierPut:
			samples["tier.put_ms"] = append(samples["tier.put_ms"], float64(d)/1e6)
		case spanObjGet:
			samples["objstore.client_get_us"] = append(samples["objstore.client_get_us"], float64(d)/1e3)
		case spanObjPut:
			samples["objstore.client_put_us"] = append(samples["objstore.client_put_us"], float64(d)/1e3)
		case spanProbe:
			samples["fleet.probe_us"] = append(samples["fleet.probe_us"], float64(d)/1e3)
		case spanProxy:
			samples["fleet.proxy_ms"] = append(samples["fleet.proxy_ms"], float64(d)/1e6)
		case spanRun:
			name := "experiments." + s.id + ".run_ms"
			samples[name] = append(samples[name], float64(d)/1e6)
		}
		if s.kind == spanHandler {
			continue
		}
		if s.rid != 0 {
			k := ridSeam{s.replica, s.rid}
			byRid[k] = append(byRid[k], s)
		}
		if s.fp != "" {
			k := fpSeam{s.replica, s.fp}
			byFP[k] = append(byFP[k], s)
		}
	}

	// Admission wait: a Run's start minus the end of the last tier Get
	// for its fingerprint on its replica.
	for _, s := range spans {
		if s.kind != spanRun {
			continue
		}
		last := int64(-1)
		for _, c := range byFP[fpSeam{s.replica, s.fp}] {
			if c.kind == spanTierGet && c.end <= s.start && c.end > last {
				last = c.end
			}
		}
		if last >= 0 {
			samples["sched.admit_wait_ms"] = append(samples["sched.admit_wait_ms"], float64(s.start-last)/1e6)
		}
	}

	// Handler self time: the handler span minus the union of its child
	// spans — those carrying its request id, and the fingerprint-matched
	// ones on its replica that lie inside it.
	for _, h := range spans {
		if h.kind != spanHandler || !h.client {
			continue
		}
		fp, ok := fingerprintOf(h.target)
		if !ok {
			continue
		}
		var kids [][2]int64
		for _, c := range byRid[ridSeam{h.replica, h.rid}] {
			kids = append(kids, [2]int64{c.start, c.end})
		}
		for _, c := range byFP[fpSeam{h.replica, fp}] {
			if c.rid == 0 && c.start >= h.start && c.end <= h.end {
				kids = append(kids, [2]int64{c.start, c.end})
			}
		}
		self := (h.end - h.start) - covered(kids, h.start, h.end)
		samples["serve.handler_self_us"] = append(samples["serve.handler_self_us"], float64(self)/1e3)
	}
	for name, v := range samples {
		m[name] = median(v)
	}
	return m
}

// covered returns how much of [lo, hi] the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}
