package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// repoRoot walks up from the working directory to the repository root,
// the directory holding cmd/wsmessenger, so the bench finds the broker's
// source whether it runs from the root (the driver) or from its own
// directory (`go run .`, `go test`).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "wsmessenger", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("wsbench: no cmd/wsmessenger at or above the working directory; run from the repository")
		}
		dir = parent
	}
}

// buildBroker compiles cmd/wsmessenger into dir. `go build -o` relinks
// only when the sources changed, so repeated runs in one checkout pay for
// the build once.
func buildBroker(ctx context.Context, root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "wsmessenger")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/wsmessenger")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("wsbench: go build ./cmd/wsmessenger: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr picks a free loopback port by binding :0 and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// tailBuffer keeps the last lines written to it (the child's stderr).
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
	part  []byte
	keep  int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.part = append(t.part, p...)
	for {
		i := bytes.IndexByte(t.part, '\n')
		if i < 0 {
			break
		}
		t.lines = append(t.lines, string(t.part[:i]))
		t.part = t.part[i+1:]
		if len(t.lines) > t.keep {
			t.lines = t.lines[len(t.lines)-t.keep:]
		}
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := strings.Join(t.lines, "\n")
	if len(t.part) > 0 {
		s += "\n" + string(t.part)
	}
	return s
}

// child is one running wsmessenger process.
type child struct {
	cmd      *exec.Cmd
	stderr   *tailBuffer
	httpAddr string // host:port of the HTTP doors
	mqttAddr string // host:port of the MQTT door, "" when off
	dataDir  string // removed on stop, "" when the workload has none
	waited   chan struct{}
	waitErr  error
	hc       *http.Client
}

func (c *child) url(path string) string { return "http://" + c.httpAddr + path }

// startBroker boots the binary on free loopback ports and returns once
// /healthz answers 200. On a boot that stays unhealthy for healthTimeout
// the child is killed and its last 40 stderr lines are returned in the
// error.
func startBroker(ctx context.Context, bin, tmpRoot string, spec *workloadSpec, healthTimeout time.Duration) (*child, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &child{httpAddr: httpAddr, stderr: &tailBuffer{keep: 40}, waited: make(chan struct{})}
	c.hc = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	args := []string{"-listen", httpAddr}
	if spec.mqtt {
		if c.mqttAddr, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-mqtt", c.mqttAddr)
	}
	if spec.durable {
		if c.dataDir, err = os.MkdirTemp(tmpRoot, "wsbench-log-"); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", c.dataDir)
	}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stderr = c.stderr
	c.cmd.Stdout = io.Discard
	setDeathSignal(c.cmd)
	if err := c.cmd.Start(); err != nil {
		c.removeData()
		return nil, fmt.Errorf("wsbench: start %s: %w", bin, err)
	}
	go func() {
		c.waitErr = c.cmd.Wait()
		close(c.waited)
	}()
	deadline := time.Now().Add(healthTimeout)
	for {
		if resp, err := c.hc.Get(c.url("/healthz")); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		var why string
		select {
		case <-c.waited:
			why = fmt.Sprintf("exited early (%v)", c.waitErr)
		case <-ctx.Done():
			why = ctx.Err().Error()
		default:
			if time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			why = fmt.Sprintf("/healthz not 200 within %v", healthTimeout)
		}
		c.stop(false)
		return nil, fmt.Errorf("wsbench: broker %s; last stderr lines:\n%s", why, c.stderr.String())
	}
}

// stop ends the child and removes its data directory. A graceful stop
// sends SIGINT (the broker's own shutdown path) and escalates to SIGKILL
// after three seconds; it always waits until the process is reaped.
func (c *child) stop(graceful bool) {
	defer c.removeData()
	defer c.hc.CloseIdleConnections()
	if c.cmd.Process == nil {
		return
	}
	if graceful {
		_ = c.cmd.Process.Signal(os.Interrupt)
		select {
		case <-c.waited:
			return
		case <-time.After(3 * time.Second):
		}
	}
	_ = c.cmd.Process.Kill()
	<-c.waited
}

func (c *child) removeData() {
	if c.dataDir != "" {
		_ = os.RemoveAll(c.dataDir)
	}
}

// procCPU returns utime+stime of a process in microseconds.
func procCPU(pid int) (int64, error) {
	user, sys, err := procCPUSplit(pid)
	return user + sys, err
}

// procCPUSplit returns utime and stime of a process in microseconds, read
// from /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks a
// second).
func procCPUSplit(pid int) (user, sys int64, err error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the last ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("wsbench: malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("wsbench: short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("wsbench: unparsable cpu ticks in /proc/%d/stat", pid)
	}
	const tickUS = 1_000_000 / 100
	return ut * tickUS, st * tickUS, nil
}

// procStatusMiB reads one kB-valued field (VmRSS, VmHWM) of
// /proc/<pid>/status, in MiB.
func procStatusMiB(pid int, field string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			if fs := strings.Fields(rest); len(fs) >= 1 {
				kb, err := strconv.ParseFloat(fs[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("wsbench: no %s in /proc/%d/status", field, pid)
}

// metrics is one /metrics scrape: series (name plus label set, exactly as
// exposed) → value.
type metrics map[string]float64

// get reads a series of the broker component; extra is an additional
// label pair such as `stage="dispatch"`.
func (m metrics) get(name string, extra ...string) float64 {
	key := name + `{component="broker"`
	for _, e := range extra {
		key += "," + e
	}
	return m[key+"}"]
}

func (c *child) scrape() (metrics, error) {
	resp, err := c.hc.Get(c.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("wsbench: /metrics returned HTTP %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (metrics, error) {
	m := metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}
