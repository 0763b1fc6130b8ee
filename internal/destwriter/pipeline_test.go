package destwriter

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dispatch/faulty"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// deliverAsync runs one Deliver on its own goroutine (Deliver blocks until
// the batch settles) and returns the channel its error will arrive on.
func deliverAsync(p *Pool, b *Batch) chan error {
	ch := make(chan error, 1)
	go func() { ch <- p.Deliver(context.Background(), b) }()
	return ch
}

// TestPipelinedConcurrentFlights: with a fixed window of W, one host runs W
// wire sends concurrently — the serial 1/RTT bound the window exists to
// break. Each send is gated, so the test observes all three in flight at
// once before releasing any.
func TestPipelinedConcurrentFlights(t *testing.T) {
	c := &capture{gate: make(chan struct{})}
	p := newTestPool(c, Config{MaxInflightPerHost: 3})
	defer p.Close()
	tpl := testTemplate(t, "pipelined")

	var done []chan error
	for i := 0; i < 3; i++ {
		done = append(done, deliverAsync(p, &Batch{
			Addr:    "http://dest-p:80/sink",
			Key:     fmt.Sprintf("sub-%d", i),
			Entries: []Entry{{Frame: tpl, SubID: fmt.Sprintf("sub-%d", i)}},
		}))
		want := i + 1
		waitFor(t, fmt.Sprintf("%d concurrent flights", want), func() bool { return p.Inflight() == want })
	}
	if got := p.Window(); got != 3 {
		t.Errorf("Window() = %d, want 3 (fixed window pins at the maximum)", got)
	}
	close(c.gate) // release every send
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("Deliver %d: %v", i, err)
		}
	}
	if got := p.PeakInflight(); got != 3 {
		t.Errorf("PeakInflight = %d, want 3", got)
	}
	if got := c.count(); got != 3 {
		t.Errorf("wire sends = %d, want 3 (one flight each)", got)
	}
}

// TestSameKeyNeverConcurrent is the ordering pin: two batches sharing a Key
// must not ride two concurrent flights — the second is held until the first
// completes, and lands on the wire after it — while a different key flies
// immediately. Per-subscriber order is exactly this property.
func TestSameKeyNeverConcurrent(t *testing.T) {
	c := &capture{gate: make(chan struct{})}
	p := newTestPool(c, Config{MaxInflightPerHost: 4})
	defer p.Close()

	first := deliverAsync(p, &Batch{
		Addr:    "http://dest-k:80/sink",
		Key:     "sub-1",
		Entries: []Entry{{Frame: testTemplate(t, "first"), SubID: "sub-1"}},
	})
	waitFor(t, "first flight in flight", func() bool { return p.Inflight() == 1 })

	second := deliverAsync(p, &Batch{
		Addr:    "http://dest-k:80/sink",
		Key:     "sub-1",
		Entries: []Entry{{Frame: testTemplate(t, "second"), SubID: "sub-1"}},
	})
	waitFor(t, "conflicting batch held", func() bool { return p.QueueDepth() == 1 })

	other := deliverAsync(p, &Batch{
		Addr:    "http://dest-k:80/sink",
		Key:     "sub-2",
		Entries: []Entry{{Frame: testTemplate(t, "other"), SubID: "sub-2"}},
	})
	waitFor(t, "unrelated key flying", func() bool { return p.Inflight() == 2 })

	// The window has room (4), yet the same-key batch must stay held.
	time.Sleep(50 * time.Millisecond)
	if got := p.Inflight(); got != 2 {
		t.Fatalf("Inflight = %d, want 2 (same-key batch must not fly concurrently)", got)
	}
	if got := p.QueueDepth(); got != 1 {
		t.Fatalf("QueueDepth = %d, want 1 held batch", got)
	}

	// Three tokens: the two in-flight sends, then the held batch's flight
	// (which can only launch once the first sub-1 flight completes).
	for i := 0; i < 3; i++ {
		c.gate <- struct{}{}
	}
	for name, ch := range map[string]chan error{"first": first, "second": second, "other": other} {
		if err := <-ch; err != nil {
			t.Fatalf("Deliver %s: %v", name, err)
		}
	}
	if got := c.count(); got != 3 {
		t.Fatalf("wire sends = %d, want 3", got)
	}
	idx := func(marker string) int {
		for i := 0; i < c.count(); i++ {
			if bytes.Contains(c.body(i), []byte(marker)) {
				return i
			}
		}
		return -1
	}
	if i, j := idx("first"), idx("second"); i < 0 || j < 0 || i > j {
		t.Errorf("sub-1 batches on the wire out of order: first at %d, second at %d", i, j)
	}
}

// TestSameKeyQueueStaysFIFOWhileOtherKeyOvertakes: three batches of one key
// and one batch of another are queued behind a gated flight of the first
// key at window 2. The other key takes the free slot at once — overtaking
// the three queued ahead of it — while those three stay queued until the
// conflicting flight lands and then reach the wire in arrival order.
func TestSameKeyQueueStaysFIFOWhileOtherKeyOvertakes(t *testing.T) {
	w := newGatedWire("mark-head", "mark-other")
	p := NewPool(Config{Send: w.send, NextMessageID: nextMID, MaxInflightPerHost: 2})
	defer p.Close()
	batch := func(key, mark string) *Batch {
		return &Batch{
			Addr:    "http://dest-o:80/sink",
			Key:     key,
			Entries: []Entry{{Body: []byte(mark)}},
		}
	}

	head := deliverAsync(p, batch("sub-1", "mark-head"))
	if m := <-w.entered; m != "mark-head" {
		t.Fatalf("first send on the wire = %q, want mark-head", m)
	}
	var queued []chan error
	for i, mark := range []string{"mark-q1", "mark-q2", "mark-q3"} {
		queued = append(queued, deliverAsync(p, batch("sub-1", mark)))
		want := i + 1
		waitFor(t, fmt.Sprintf("%d same-key batches queued", want), func() bool { return p.QueueDepth() == want })
	}
	other := deliverAsync(p, batch("sub-2", "mark-other"))
	if m := <-w.entered; m != "mark-other" {
		t.Fatalf("second send on the wire = %q, want mark-other (the free slot is the other key's)", m)
	}
	if q, f := p.QueueDepth(), p.Inflight(); q != 3 || f != 2 {
		t.Fatalf("queued=%d inflight=%d, want 3 and 2", q, f)
	}

	// Landing the other key frees a slot, but sub-1 is still in flight.
	close(w.gates["mark-other"])
	if err := <-other; err != nil {
		t.Fatal(err)
	}
	if q, f := p.QueueDepth(), p.Inflight(); q != 3 || f != 1 {
		t.Fatalf("after the other key landed: queued=%d inflight=%d, want 3 and 1", q, f)
	}

	close(w.gates["mark-head"])
	if err := <-head; err != nil {
		t.Fatal(err)
	}
	for i, ch := range queued {
		if err := <-ch; err != nil {
			t.Fatalf("queued Deliver %d: %v", i+1, err)
		}
	}
	for _, want := range []string{"mark-q1", "mark-q2", "mark-q3"} {
		if m := <-w.entered; m != want {
			t.Fatalf("same-key batch on the wire = %q, want %q (arrival order)", m, want)
		}
	}
	if got := p.PeakInflight(); got != 2 {
		t.Errorf("PeakInflight = %d, want 2", got)
	}
}

// TestAIMDWindowShrinksAndRecovers is the chaos test: a flaky host failing
// every 3rd send (the faulty injector's deterministic schedule) must pull
// the adaptive window down — with at most 2 consecutive successes the
// additive increase can never outrun the halving, so the window stays under
// 3 — and a recovered host must grow it back to the configured maximum.
// Accounting is conserved throughout: every batch settles as exactly one of
// delivered or failed, and failures match the injector's count.
func TestAIMDWindowShrinksAndRecovers(t *testing.T) {
	inj := faulty.New(faulty.Script{FailEvery: 3}, nil)
	var faultsOn atomic.Bool
	faultsOn.Store(true)
	c := &capture{}
	cfg := Config{MaxInflightPerHost: 8, AdaptiveWindow: true}
	cfg.Send = func(ctx context.Context, addr, ct string, body []byte) error {
		if faultsOn.Load() {
			if err := inj.DeliverCtx(ctx, nil); err != nil {
				return err
			}
		}
		return c.send(ctx, addr, ct, body)
	}
	cfg.NextMessageID = nextMID
	p := NewPool(cfg)
	defer p.Close()
	tpl := testTemplate(t, "chaos")

	var delivered, failed int
	deliver := func(key string) {
		err := p.Deliver(context.Background(), &Batch{
			Addr:    "http://dest-c:80/sink",
			Key:     key,
			Entries: []Entry{{Frame: tpl, SubID: key}},
		})
		switch {
		case err == nil:
			delivered++
		case errors.Is(err, faulty.ErrInjected):
			failed++
		default:
			t.Errorf("Deliver: unexpected error %v", err)
		}
	}

	// Phase 1: flaky host, serialized sends — the AIMD trajectory is then
	// fully deterministic (success streaks of exactly 2 between failures).
	const flakySerial = 90
	for i := 0; i < flakySerial; i++ {
		deliver("sub-serial")
	}
	if p.WindowDecreases() == 0 {
		t.Error("WindowDecreases = 0, want > 0 (failures must shrink the window)")
	}
	if got := p.Window(); got > 3 {
		t.Errorf("Window = %d after sustained 1-in-3 failures, want <= 3", got)
	}

	// Phase 2: flaky host, concurrent keyed streams — no window assertions
	// (completion order is scheduler-dependent), but conservation must hold
	// and the race detector gets real flight concurrency to chew on.
	var (
		mu         sync.Mutex
		cDelivered int
		cFailed    int
		wg         sync.WaitGroup
	)
	const streams, perStream = 8, 25
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			key := fmt.Sprintf("sub-%d", s)
			for i := 0; i < perStream; i++ {
				err := p.Deliver(context.Background(), &Batch{
					Addr:    "http://dest-c:80/sink",
					Key:     key,
					Entries: []Entry{{Frame: tpl, SubID: key}},
				})
				mu.Lock()
				switch {
				case err == nil:
					cDelivered++
				case errors.Is(err, faulty.ErrInjected):
					cFailed++
				default:
					t.Errorf("Deliver: unexpected error %v", err)
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	delivered += cDelivered
	failed += cFailed

	// Phase 3: host recovers — the additive increase walks the window back
	// up to the configured maximum (1+2+...+7 = 28 successes suffice).
	faultsOn.Store(false)
	const cleanSerial = 60
	for i := 0; i < cleanSerial; i++ {
		deliver("sub-serial")
	}
	if got := p.Window(); got != 8 {
		t.Errorf("Window = %d after recovery, want 8 (back at the maximum)", got)
	}

	// Conservation: every batch settled exactly once, and the wire view
	// reconciles with the injector. Coalescing means one envelope can carry
	// several batches, so a single injected send failure fails every member
	// batch — failed >= injected failures, delivered >= successful sends.
	total := flakySerial + streams*perStream + cleanSerial
	if delivered+failed != total {
		t.Errorf("delivered %d + failed %d != %d batches", delivered, failed, total)
	}
	if p.SendErrors() != inj.Failures() {
		t.Errorf("SendErrors = %d, injector failures = %d (each injected failure is exactly one failed send)", p.SendErrors(), inj.Failures())
	}
	if uint64(failed) < inj.Failures() {
		t.Errorf("failed = %d < injector failures %d (a failed send fails at least one batch)", failed, inj.Failures())
	}
	if got := c.count(); got > delivered {
		t.Errorf("successful wire sends = %d > delivered batches %d", got, delivered)
	}
}
