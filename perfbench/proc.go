package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/bccserve from the checkout into the build
// directory. The Go build cache makes every build after the first a
// no-op link check.
func buildServer(root, build string) (string, error) {
	bin := filepath.Join(build, "bccserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bccserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building bccserve: %v\n%s", err, out)
	}
	return bin, nil
}

// process is one started child — a bccserve replica or a traced
// in-process assembly — whose readiness was read from its stdout.
type process struct {
	cmd   *exec.Cmd
	args  []string
	stdin io.WriteCloser // nil for bccserve
	// lines carries stdout after the ready line. The buffer holds the
	// few lines a child prints unasked (bccserve's drain messages), so
	// its stdout never blocks on a reader that has stopped listening.
	lines  chan string
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has been waited for
}

// readyTimeout bounds how long a child may take to print its ready
// line, so a replica that hangs at startup fails the run instead of
// hanging it.
const readyTimeout = 60 * time.Second

// start runs bin with args and returns once a stdout line starting with
// readyPrefix arrives, together with the rest of that line. Readiness
// is the child's own announcement — nothing polls.
func start(bin string, args []string, readyPrefix string, withStdin bool) (*process, string, error) {
	p := &process{
		cmd:   exec.Command(bin, args...),
		args:  append([]string{filepath.Base(bin)}, args...),
		lines: make(chan string, 16),
		done:  make(chan struct{}),
	}
	// The kernel kills the child if perfbench dies first.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p.cmd.Stderr = &p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if withStdin {
		if p.stdin, err = p.cmd.StdinPipe(); err != nil {
			return nil, "", err
		}
	}
	if err := p.cmd.Start(); err != nil {
		return nil, "", err
	}
	ready := make(chan string, 1)
	go func() {
		// The reader owns stdout until EOF and only then waits for the
		// process: Wait closes the pipe, so it must follow every read.
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if !announced && strings.HasPrefix(line, readyPrefix) {
				announced = true
				ready <- strings.TrimPrefix(line, readyPrefix)
				continue
			}
			if announced {
				p.lines <- line
			}
		}
		io.Copy(io.Discard, stdout)
		p.cmd.Wait()
		close(p.lines)
		close(p.done)
	}()
	select {
	case rest := <-ready:
		return p, rest, nil
	case <-p.done:
		return nil, "", fmt.Errorf("%s exited before it was ready: %s", p.args[0], strings.TrimSpace(p.stderr.String()))
	case <-time.After(readyTimeout):
		p.kill()
		return nil, "", fmt.Errorf("%s not ready after %s", p.args[0], readyTimeout)
	}
}

// stop asks the process to exit (SIGTERM: bccserve drains) and waits
// until it has; a process that outlives the grace period is killed.
func (p *process) stop() {
	if p.stdin != nil {
		p.stdin.Close()
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.kill()
	}
}

func (p *process) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// startReplica starts one bccserve and returns it with its base URL.
func startReplica(bin string, args []string) (*process, string, error) {
	p, addr, err := start(bin, args, "bccserve listening on ", false)
	if err != nil {
		return nil, "", err
	}
	return p, "http://" + strings.TrimSpace(addr), nil
}

// reservePorts binds n loopback ports and releases them, so fleet
// members can be started with their final URLs in the -fleet list.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTicks = 100

// cpuTime returns the process's user+system CPU time.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// residentSet returns the process's resident set (VmRSS) in bytes.
func residentSet(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}
