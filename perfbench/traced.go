package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// child is a running in-process assembly.
type child struct {
	p    *process
	urls []string
}

func startChild(exe string, cfg childConfig) (*child, error) {
	blob, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	p, rest, err := start(exe, []string{childArg, string(blob)}, "ready ", true)
	if err != nil {
		return nil, err
	}
	return &child{p: p, urls: strings.Split(strings.TrimSpace(rest), ",")}, nil
}

// send writes one protocol command and returns the child's answer line.
func (c *child) send(cmd string) (string, error) {
	if _, err := fmt.Fprintln(c.p.stdin, cmd); err != nil {
		return "", err
	}
	select {
	case line, ok := <-c.p.lines:
		if !ok {
			return "", fmt.Errorf("in-process replicas exited: %s", strings.TrimSpace(c.p.stderr.String()))
		}
		return line, nil
	case <-time.After(30 * time.Second):
		return "", fmt.Errorf("in-process replicas did not answer %q", cmd)
	}
}

func (c *child) dump() (map[string]float64, error) {
	line, err := c.send("dump")
	if err != nil {
		return nil, err
	}
	blob, ok := strings.CutPrefix(line, "dump ")
	if !ok {
		return nil, fmt.Errorf("unexpected answer to dump: %.100s", line)
	}
	var m map[string]float64
	return m, json.Unmarshal([]byte(blob), &m)
}

func childConfigFor(w *workload, dir string, traced bool) childConfig {
	cfg := childConfig{Traced: traced, Bucket: filepath.Join(dir, "bucket")}
	for i := 0; i < w.replicas; i++ {
		cfg.Dirs = append(cfg.Dirs, filepath.Join(dir, fmt.Sprintf("store-%d", i)))
	}
	return cfg
}

// runTraced runs the workload against two in-process assemblies, one
// untraced and one traced, with the timed run's generator and cells,
// and returns the traced side's span statistics and per-operation
// counter deltas plus trace.overhead_pct, the throughput gap between
// the sides. Time-bound workloads alternate half-second slices between
// the sides so both see the same host drift; cold-fleet runs its whole
// list on each.
func runTraced(w *workload, exe, runDir string, g *gate) (map[string]float64, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var sides [2]*child // untraced, traced
	var next [2]func(int) target
	for i := range sides {
		c, err := startChild(exe, childConfigFor(w, filepath.Join(runDir, fmt.Sprintf("inproc-%d", i)), i == 1))
		if err != nil {
			return nil, err
		}
		defer c.p.stop()
		sides[i] = c
		if next[i], err = w.route(c.urls); err != nil {
			return nil, err
		}
		if !w.fixed {
			if _, err := w.prepare(client, g, c.urls); err != nil {
				return nil, err
			}
		}
	}
	traced := sides[1]

	var ops [2]int64
	var busy [2]time.Duration
	window := func(side int, loop func() loopResult) error {
		if side == 1 {
			if _, err := traced.send("mark"); err != nil {
				return err
			}
		}
		res := loop()
		ops[side] += res.ops
		busy[side] += res.wall
		if side == 1 {
			if _, err := traced.send("mark"); err != nil {
				return err
			}
		}
		return nil
	}
	if w.fixed {
		for side, c := range sides {
			// Each side's cold check runs right before its list, on a
			// host the other side no longer loads.
			if _, err := w.prepare(client, g, c.urls); err != nil {
				return nil, err
			}
			err := window(side, func() loopResult { return closedLoop(client, g, next[side], len(w.cells), 0, nil) })
			if err != nil {
				return nil, err
			}
		}
	} else {
		const slice = 0.5 // seconds
		var offset [2]int // each side continues its request order
		for k := 0; k < 2*w.seconds; k++ {
			side := k % 2
			err := window(side, func() loopResult {
				res := closedLoop(client, g, func(i int) target { return next[side](offset[side] + i) }, 0, slice, nil)
				offset[side] += int(res.ops)
				return res
			})
			if err != nil {
				return nil, err
			}
		}
	}
	out, err := traced.dump()
	if err != nil {
		return nil, err
	}
	perOp := float64(max(ops[1], 1))
	for raw, name := range map[string]string{
		"encodes": "result.encodes_per_op", "mallocs": "proc.allocs_per_op", "alloc_bytes": "proc.alloc_bytes_per_op",
	} {
		out[name] = out[raw] / perOp
		delete(out, raw)
	}
	untraced, tracedRate := float64(ops[0])/busy[0].Seconds(), float64(ops[1])/busy[1].Seconds()
	out["trace.overhead_pct"] = 100 * (untraced - tracedRate) / untraced
	return out, nil
}
