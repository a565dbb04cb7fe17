package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is printed with every run so base and head records can
// be compared on one host.
type environment struct {
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Seconds    int        `json:"seconds"`
	Trace      bool       `json:"trace"`
	Nproc      int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	CPU        string     `json:"cpu"`
	Revision   string     `json:"revision"`
	Clients    int        `json:"clients"`
	Replicas   [][]string `json:"replicas"`
}

func collectEnv(opts options, w *workload, replicaArgs [][]string) environment {
	return environment{
		Workload: w.name, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: cpuModel(), Revision: revision(opts.root),
		Clients: clients(), Replicas: replicaArgs,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the checkout's git commit, or — in a checkout that is
// not a git repository — "tree:" and a digest of go.mod and every Go
// source file, which names the code just as well.
func revision(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && rel != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || rel == "go.mod") {
			if data, err := os.ReadFile(path); err == nil {
				h.Write([]byte(rel + "\x00"))
				h.Write(data)
			}
		}
		return nil
	})
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
