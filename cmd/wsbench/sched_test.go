package main

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a clock only the test moves: sleeping jumps to the wake-up
// time, and the send function advances it by the service time it plays.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

// A slow completion must not move any later due-time (no coordinated
// omission): the publishes behind a stall go out late and their latency
// still runs from the instant they were due.
func TestOpenLoopDueTimesIgnoreCompletions(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{}
	service := map[int]time.Duration{3: 35 * ms} // publish 3 stalls; the rest take 1 ms
	var sentK []int
	send := func(k int, due time.Duration) error {
		sentK = append(sentK, k)
		if want := 100*ms + time.Duration(k-10)*10*ms; due != want {
			t.Errorf("publish %d handed due %v, want %v", k, due, want)
		}
		d, ok := service[k-10]
		if !ok {
			d = ms
		}
		clk.t += d
		if k-10 == 5 {
			return errors.New("refused")
		}
		return nil
	}
	recs := openLoop(clk, 100*ms, 10*ms, 10, 8, send, nil)
	if len(recs) != 8 || sentK[0] != 10 || sentK[7] != 17 {
		t.Fatalf("sent %v, want publishes 10..17", sentK)
	}
	// due: 100,110,...,170. Publish 3 is sent at 130 and acked at 165, so
	// 4, 5 and 6 (due 140, 150, 160) leave at 165, 166, 167; 7 is on time.
	wantSent := []time.Duration{100, 110, 120, 130, 165, 166, 167, 170}
	wantAcked := []time.Duration{101, 111, 121, 165, 166, 167, 168, 171}
	for i, r := range recs {
		if due := time.Duration(100+10*i) * ms; time.Duration(r.due) != due {
			t.Errorf("publish %d due %v, want %v: a stall rescheduled it", i, time.Duration(r.due), due)
		}
		if time.Duration(r.sent) != wantSent[i]*ms || time.Duration(r.acked) != wantAcked[i]*ms {
			t.Errorf("publish %d sent %v acked %v, want %v and %v", i, time.Duration(r.sent), time.Duration(r.acked), wantSent[i]*ms, wantAcked[i]*ms)
		}
		// The generator itself was never late: every send left the instant
		// it could (its due time, or the previous ack when that came later).
		if r.lateNS != 0 {
			t.Errorf("publish %d generator lateness %d ns, want 0", i, r.lateNS)
		}
		if r.failed != (i == 5) {
			t.Errorf("publish %d failed = %v", i, r.failed)
		}
	}
	// Latency from due, not from sent: publish 4 waited 25 ms behind the stall.
	if got := time.Duration(recs[4].acked - recs[4].due); got != 26*ms {
		t.Errorf("publish 4 latency from due = %v, want 26ms", got)
	}
}

func TestOpenLoopStopsWhenAsked(t *testing.T) {
	clk := &fakeClock{}
	n := 0
	recs := openLoop(clk, 0, time.Millisecond, 0, 100, func(int, time.Duration) error { n++; return nil }, func() bool { return n == 3 })
	if len(recs) != 3 {
		t.Errorf("%d publishes after stop at 3", len(recs))
	}
}

// The generator's own lateness is what the wall clock adds between the
// instant a send could leave and the instant it did.
func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	clk := &lateClock{late: 300 * time.Microsecond}
	recs := openLoop(clk, 0, time.Millisecond, 0, 4, func(int, time.Duration) error { return nil }, nil)
	for i, r := range recs[1:] {
		if r.lateNS != int64(300*time.Microsecond) {
			t.Errorf("publish %d lateness %d ns, want 300000", i+1, r.lateNS)
		}
	}
}

// lateClock oversleeps every wake-up by a fixed amount.
type lateClock struct{ t, late time.Duration }

func (c *lateClock) now() time.Duration { return c.t }

func (c *lateClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t + c.late
	}
}
