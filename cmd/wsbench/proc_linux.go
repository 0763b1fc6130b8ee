package main

import (
	"os/exec"
	"syscall"
	"time"
)

// setDeathSignal makes the kernel kill the child when the bench dies
// without running its cleanup (SIGKILL, a crash), so no wsmessenger is
// ever orphaned.
func setDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// preciseSleep sleeps d on a kernel high-resolution timer. time.Sleep
// rides the runtime's network poller, whose epoll timeout counts whole
// milliseconds: measured here it overshoots by up to 1.1 ms, which an
// open-loop generator would add to every latency it reports.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		if err := syscall.Nanosleep(&ts, &ts); err != syscall.EINTR {
			return
		}
	}
}
