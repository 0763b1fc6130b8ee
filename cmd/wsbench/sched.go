package main

import "time"

// clock is the time source of the open-loop scheduler; tests substitute a
// fake so due-times can be checked against slow completions without
// sleeping.
type clock interface {
	// now is the time since the bench epoch.
	now() time.Duration
	// sleepUntil returns no earlier than t (at once when t has passed).
	sleepUntil(t time.Duration)
}

type wallClock struct{ epoch time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.epoch) }

// sleepUntil parks on the runtime timer until shortly before t and takes
// the last stretch on a high-resolution kernel timer.
func (c wallClock) sleepUntil(t time.Duration) {
	const fine = 2 * time.Millisecond
	if d := t - c.now(); d > fine {
		time.Sleep(d - fine)
	}
	if d := t - c.now(); d > 0 {
		preciseSleep(d)
	}
}

// pubRecord is what one publisher keeps per publish, all since the epoch.
// lateNS is how long after the first instant the publisher could have sent
// (the later of due and the previous ack) it actually did — the
// generator's own lateness, as opposed to the wait a slow broker imposes,
// which ack and receipt latencies count because they run from due.
type pubRecord struct {
	due, sent, acked int64
	lateNS           int64
	failed           bool
}

// openLoop sends publishes first..first+n−1 of one publisher on a fixed
// schedule: publish k is due at start + (k−first)·interval whatever
// happened to the ones before it. A send that outlasts the interval makes
// the next ones late, never rescheduled — their latencies still run from
// the instant they were due (no coordinated omission). send blocks until
// the broker acknowledged; stop is polled between sends.
func openLoop(clk clock, start, interval time.Duration, first, n int, send func(k int, due time.Duration) error, stop func() bool) []pubRecord {
	recs := make([]pubRecord, 0, n)
	free := time.Duration(0)
	for i := 0; i < n; i++ {
		if stop != nil && stop() {
			break
		}
		due := start + time.Duration(i)*interval
		clk.sleepUntil(due)
		sent := clk.now()
		ready := due
		if free > ready {
			ready = free
		}
		err := send(first+i, due)
		acked := clk.now()
		free = acked
		recs = append(recs, pubRecord{
			due: int64(due), sent: int64(sent), acked: int64(acked),
			lateNS: int64(sent - ready), failed: err != nil,
		})
	}
	return recs
}
