//go:build !linux

package main

import (
	"os/exec"
	"time"
)

func setDeathSignal(*exec.Cmd) {}

func preciseSleep(d time.Duration) { time.Sleep(d) }
