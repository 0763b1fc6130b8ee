package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/wse"
)

// lockedBuffer collects a daemon's log output for failure messages.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// daemon is one running wsmessenger process.
type daemon struct {
	cmd    *exec.Cmd
	log    *lockedBuffer
	exited chan struct{}
}

// startDaemon boots the binary on addr and waits until /healthz answers.
func startDaemon(t *testing.T, bin, addr string, args ...string) *daemon {
	t.Helper()
	d := &daemon{log: &lockedBuffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { _ = d.cmd.Wait(); close(d.exited) }()
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill()
		<-d.exited
	})
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		select {
		case <-d.exited:
			t.Fatalf("daemon exited before it was healthy:\n%s", d.log)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon not healthy within 20s (last error %v):\n%s", err, d.log)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// terminate sends SIGTERM and waits for the process to exit on its own.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		t.Fatalf("daemon still running 20s after SIGTERM:\n%s", d.log)
	}
}

func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestSIGTERMSnapshotsSubscriptions: a daemon stopped with SIGTERM — what
// kill, docker stop and systemd send — writes its -state snapshot, so a
// restart with the same file still knows the subscription.
func TestSIGTERMSnapshotsSubscriptions(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "wsmessenger")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	addr := freeLoopbackAddr(t)
	state := filepath.Join(dir, "state.json")

	first := startDaemon(t, bin, addr, "-state", state)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sub := &wse.Subscriber{Client: &transport.HTTPClient{}, Version: wse.V200408}
	h, err := sub.Subscribe(ctx, "http://"+addr+"/", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "http://127.0.0.1:9/sink"), Expires: "PT1H"})
	if err != nil {
		t.Fatalf("subscribe: %v\n%s", err, first.log)
	}
	first.terminate(t)

	second := startDaemon(t, bin, addr, "-state", state)
	if _, err := sub.GetStatus(ctx, h); err != nil {
		t.Fatalf("GetStatus %s after a SIGTERM restart: %v\nfirst run:\n%s\nsecond run:\n%s", h.ID, err, first.log, second.log)
	}
}
