package main

// The benchmark's self-check, at small sizes. Run it from this
// directory with `go test .` (about a minute: it builds bccserve and
// runs every workload once per trace mode).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// TestMain lets the test binary serve as the traced run's in-process
// replicas, as the perfbench binary does.
func TestMain(m *testing.M) {
	exitIfChild()
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json perfbench must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesMetricLists(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, perfbench %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, wl := range bf.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to perfbench", wl.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench %d", len(bf.Workloads), len(workloads))
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload for one second in
// both trace modes and checks the result line: correct, nothing failed,
// and exactly the named metrics with their units.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload against real replicas")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			opts := options{workload: name, seed: 7, seconds: 1, trace: trace, root: root, build: t.TempDir()}
			var out bytes.Buffer
			res, err := run(opts, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.Name, v, d.Unit)
				}
			}
			if !bytes.Contains(out.Bytes(), []byte(`"nproc"`)) {
				t.Errorf("%s trace=%v: no environment block in the output", name, trace)
			}
		}
	}
}

// flipper serves the wrapped handler and flips one byte of every other
// table body, as a replica serving damaged bytes under a valid
// fingerprint would.
type flipper struct {
	h http.Handler
	n atomic.Int64
}

func (f *flipper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if r.Method == http.MethodGet && len(body) > 40 && f.n.Add(1)%2 == 0 {
		body[40] ^= 0x01
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestGateTripsOnTamperedResponse drives the hot-hits loop against an
// in-process assembly, once clean and once behind a handler that flips
// one body byte: the clean run passes the gate, the tampered one fails.
func TestGateTripsOnTamperedResponse(t *testing.T) {
	w := hotHits(3, 1)
	for _, tamper := range []bool{false, true} {
		h, err := assemble(0, childConfig{Dirs: []string{t.TempDir()}}, []string{"http://127.0.0.1"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tamper {
			h = &flipper{h: h}
		}
		srv := httptest.NewServer(h)
		client := newClient()
		g := newGate()
		if _, err := w.prepare(client, g, []string{srv.URL}); err != nil {
			t.Fatal(err)
		}
		next, err := w.route([]string{srv.URL})
		if err != nil {
			t.Fatal(err)
		}
		res := closedLoop(client, g, next, 0, 0.3, nil)
		client.CloseIdleConnections()
		srv.Close()
		attempted, failed := g.counts()
		if tamper && (failed == 0 || res.ops == attempted) {
			t.Errorf("tampered bodies passed the gate: attempted=%d failed=%d", attempted, failed)
		}
		if !tamper && (failed != 0 || attempted == 0) {
			t.Errorf("clean run: attempted=%d failed=%d: %v", attempted, failed, g.errors())
		}
	}
}
