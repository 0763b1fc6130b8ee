package destwriter

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mediation"
	"repro/internal/topics"
	"repro/internal/wsnt"
	"repro/internal/xmldom"
)

var testTopic = topics.NewPath("urn:dw", "t")

func testTemplate(t *testing.T, payloadText string) *mediation.Template {
	t.Helper()
	n := mediation.Notification{Topic: testTopic, Payload: xmldom.Elem("urn:dw", "Ev", payloadText)}
	plan := mediation.DeliveryPlan{
		Dialect:         mediation.Dialect{Family: mediation.FamilyWSN, WSN: wsnt.V1_3},
		SubscriptionID:  "seed",
		ManagerAddress:  "svc://broker/manager",
		ProducerAddress: "svc://broker",
	}
	tpl, err := mediation.NewTemplate(n, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !tpl.Coalescible() {
		t.Fatal("test template not coalescible")
	}
	return tpl
}

// capture is a Send stub recording every wire send.
type capture struct {
	mu    sync.Mutex
	gate  chan struct{} // when non-nil, each send waits for one token
	err   error
	addrs []string
	sends [][]byte
}

func (c *capture) send(ctx context.Context, addr, ct string, body []byte) error {
	if c.gate != nil {
		select {
		case <-c.gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addrs = append(c.addrs, addr)
	c.sends = append(c.sends, append([]byte(nil), body...))
	return c.err
}

func (c *capture) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sends)
}

func (c *capture) body(i int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sends[i]
}

// entryCount counts NotificationMessage elements in a serialised envelope
// (open + close tag per entry).
func entryCount(body []byte) int {
	return bytes.Count(body, []byte("NotificationMessage>")) / 2
}

var midSeq atomic.Uint64

func nextMID() string { return fmt.Sprintf("urn:uuid:test-%d", midSeq.Add(1)) }

func newTestPool(c *capture, cfg Config) *Pool {
	cfg.Send = c.send
	if cfg.NextMessageID == nil {
		cfg.NextMessageID = nextMID
	}
	return NewPool(cfg)
}

// TestCoalescesConcurrentBatches: frame-equal batches delivered while the
// writer's batch window is open land in one envelope on one round trip.
func TestCoalescesConcurrentBatches(t *testing.T) {
	c := &capture{}
	p := newTestPool(c, Config{BatchWindow: 100 * time.Millisecond})
	defer p.Close()
	tpl := testTemplate(t, "hello")

	const n = 5
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.Deliver(context.Background(), &Batch{
				Addr:        "http://dest-a:80/sink",
				ContentType: "application/soap+xml",
				Entries:     []Entry{{Frame: tpl, SubID: fmt.Sprintf("sub-%d", i)}},
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Deliver %d: %v", i, err)
		}
	}
	if got := c.count(); got != 1 {
		t.Fatalf("wire sends = %d, want 1 coalesced envelope", got)
	}
	if got := entryCount(c.body(0)); got != n {
		t.Fatalf("envelope carries %d entries, want %d\n%s", got, n, c.body(0))
	}
	for i := 0; i < n; i++ {
		want := []byte(fmt.Sprintf("sub-%d", i))
		if !bytes.Contains(c.body(0), want) {
			t.Errorf("envelope lacks subscription id %s", want)
		}
	}
	if p.Envelopes() != 1 || p.CoalescedEntries() != n {
		t.Errorf("counters: envelopes=%d entries=%d, want 1/%d", p.Envelopes(), p.CoalescedEntries(), n)
	}
	if r := p.CoalesceRatio(); r != float64(n) {
		t.Errorf("coalesce ratio %v, want %v", r, float64(n))
	}
}

// TestSeparateEnvelopesPerAddress: same host, different consumer paths —
// one writer, but entries must not merge across addresses (each envelope's
// wsa:To is its consumer's).
func TestSeparateEnvelopesPerAddress(t *testing.T) {
	c := &capture{}
	p := newTestPool(c, Config{BatchWindow: 100 * time.Millisecond})
	defer p.Close()
	tpl := testTemplate(t, "hello")

	var wg sync.WaitGroup
	for _, path := range []string{"/a", "/b"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			if err := p.Deliver(context.Background(), &Batch{
				Addr:    "http://dest-a:80" + path,
				Entries: []Entry{{Frame: tpl, SubID: "s" + path}},
			}); err != nil {
				t.Errorf("Deliver %s: %v", path, err)
			}
		}(path)
	}
	wg.Wait()
	if got := c.count(); got != 2 {
		t.Fatalf("wire sends = %d, want 2 (distinct addresses)", got)
	}
	if p.ActiveWriters() != 1 {
		t.Errorf("ActiveWriters = %d, want 1 (same host)", p.ActiveWriters())
	}
}

// TestRawEntriesSendIndividually: entries without a coalescible frame go
// out one envelope per entry, verbatim.
func TestRawEntriesSendIndividually(t *testing.T) {
	c := &capture{}
	p := newTestPool(c, Config{})
	defer p.Close()
	body := []byte("<Envelope>raw</Envelope>")
	err := p.Deliver(context.Background(), &Batch{
		Addr:    "http://dest-b:80/sink",
		Entries: []Entry{{Body: body}, {Body: body}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.count(); got != 2 {
		t.Fatalf("wire sends = %d, want 2 raw", got)
	}
	if !bytes.Equal(c.body(0), body) {
		t.Errorf("raw body altered: %s", c.body(0))
	}
	if p.RawSends() != 2 || p.Envelopes() != 0 {
		t.Errorf("counters: raw=%d envelopes=%d, want 2/0", p.RawSends(), p.Envelopes())
	}
}

// TestCancelledBatchSuppressed: Live() == false at flush time suppresses
// the batch — nothing on the wire, ErrCanceled to the caller.
func TestCancelledBatchSuppressed(t *testing.T) {
	c := &capture{}
	p := newTestPool(c, Config{})
	defer p.Close()
	tpl := testTemplate(t, "hello")
	err := p.Deliver(context.Background(), &Batch{
		Addr:    "http://dest-c:80/sink",
		Live:    func() bool { return false },
		Entries: []Entry{{Frame: tpl, SubID: "gone"}},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if c.count() != 0 {
		t.Fatalf("cancelled batch reached the wire: %d sends", c.count())
	}
	if p.Canceled() != 1 {
		t.Errorf("Canceled() = %d, want 1", p.Canceled())
	}
}

// TestSendErrorFansIn: a failed coalesced envelope fails every batch that
// contributed entries to it.
func TestSendErrorFansIn(t *testing.T) {
	c := &capture{err: errors.New("boom")}
	p := newTestPool(c, Config{BatchWindow: 100 * time.Millisecond})
	defer p.Close()
	tpl := testTemplate(t, "hello")

	const n = 3
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.Deliver(context.Background(), &Batch{
				Addr:    "http://dest-d:80/sink",
				Entries: []Entry{{Frame: tpl, SubID: fmt.Sprintf("s%d", i)}},
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || err.Error() != "boom" {
			t.Errorf("Deliver %d: err = %v, want boom", i, err)
		}
	}
	if p.SendErrors() == 0 {
		t.Error("SendErrors not counted")
	}
}

// TestBatchMaxSplitsEnvelopes: more frame-equal entries than BatchMax in
// one flush round split into ceil(n/max) envelopes.
func TestBatchMaxSplitsEnvelopes(t *testing.T) {
	c := &capture{}
	p := newTestPool(c, Config{BatchMax: 2, BatchWindow: 100 * time.Millisecond})
	defer p.Close()
	tpl := testTemplate(t, "hello")
	err := p.Deliver(context.Background(), &Batch{
		Addr: "http://dest-e:80/sink",
		Entries: []Entry{
			{Frame: tpl, SubID: "a"}, {Frame: tpl, SubID: "b"}, {Frame: tpl, SubID: "c"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.count(); got != 2 {
		t.Fatalf("wire sends = %d, want 2 (BatchMax=2 over 3 entries)", got)
	}
	if n := entryCount(c.body(0)) + entryCount(c.body(1)); n != 3 {
		t.Fatalf("total entries across envelopes = %d, want 3", n)
	}
}

// TestBackpressureBlocksThenContextFails: with a full host queue, Deliver
// blocks and the caller's context deadline converts the wait into an error
// — the path dispatch's per-attempt timeout takes under sustained pressure.
func TestBackpressureBlocksThenContextFails(t *testing.T) {
	c := &capture{gate: make(chan struct{})}
	p := newTestPool(c, Config{QueueDepth: 1})
	defer p.Close()
	tpl := testTemplate(t, "hello")
	mk := func() *Batch {
		return &Batch{Addr: "http://dest-f:80/sink", Entries: []Entry{{Frame: tpl, SubID: "s"}}}
	}
	// First batch occupies the writer (gated send); second fills the queue.
	done1 := make(chan error, 1)
	go func() { done1 <- p.Deliver(context.Background(), mk()) }()
	done2 := make(chan error, 1)
	go func() { done2 <- p.Deliver(context.Background(), mk()) }()
	// Give both time to enqueue/start.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Deliver(ctx, mk()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full-queue Deliver err = %v, want DeadlineExceeded", err)
	}
	close(c.gate) // release all gated sends
	if err := <-done1; err != nil {
		t.Fatalf("first Deliver: %v", err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("second Deliver: %v", err)
	}
}

// gatedWire is a Send stub for tests that must know a send is on the wire
// without sleeping: every send announces its marker on entered, and a send
// whose marker has a gate blocks until that gate is closed. The marker is
// whichever gate name (or "mark-…" token) the body contains.
type gatedWire struct {
	entered chan string
	gates   map[string]chan struct{}
}

func newGatedWire(gated ...string) *gatedWire {
	g := &gatedWire{entered: make(chan string, 256), gates: map[string]chan struct{}{}}
	for _, m := range gated {
		g.gates[m] = make(chan struct{})
	}
	return g
}

func (g *gatedWire) send(ctx context.Context, addr, ct string, body []byte) error {
	for m, gate := range g.gates {
		if bytes.Contains(body, []byte(m)) {
			g.entered <- m
			<-gate
			return nil
		}
	}
	g.entered <- string(body)
	return nil
}

// hostEntry reads the pool's map entry for a host name.
func hostEntry(p *Pool, name string) *host {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.host[name]
}

// TestQuietHostHoldsNothing: a host owns no goroutine and no reference
// count — by the time Deliver returns, its queue is empty and no flight is
// out; the next Deliver just uses the idle entry again.
func TestQuietHostHoldsNothing(t *testing.T) {
	c := &capture{}
	p := newTestPool(c, Config{})
	defer p.Close()
	tpl := testTemplate(t, "hello")
	b := func() *Batch {
		return &Batch{Addr: "http://dest-g:80/sink", Entries: []Entry{{Frame: tpl, SubID: "s"}}}
	}
	for i := 1; i <= 2; i++ {
		if err := p.Deliver(context.Background(), b()); err != nil {
			t.Fatalf("Deliver %d: %v", i, err)
		}
		if h := hostEntry(p, "dest-g:80"); h == nil || !h.quiet() {
			t.Fatalf("after Deliver %d: host entry %+v, want a quiet one", i, h)
		}
		if q, f := p.QueueDepth(), p.Inflight(); q != 0 || f != 0 {
			t.Fatalf("after Deliver %d: queued=%d inflight=%d, want 0 and 0", i, q, f)
		}
	}
	if c.count() != 2 {
		t.Fatalf("sends = %d, want 2", c.count())
	}
}

// TestSweepDropsQuietHostsOnly: quiet hosts leave the map once it has grown
// past the sweep threshold, and a host whose gated send is still in flight
// is never among them — its flight settles against the same entry.
func TestSweepDropsQuietHostsOnly(t *testing.T) {
	w := newGatedWire("mark-slow")
	p := NewPool(Config{Send: w.send, NextMessageID: nextMID, MaxInflightPerHost: 2})
	defer p.Close()

	slow := deliverAsync(p, &Batch{
		Addr:    "http://dest-slow:80/sink",
		Key:     "sub-1",
		Entries: []Entry{{Frame: testTemplate(t, "mark-slow"), SubID: "sub-1"}},
	})
	if m := <-w.entered; m != "mark-slow" {
		t.Fatalf("first send on the wire = %q, want the gated one", m)
	}
	busy := hostEntry(p, "dest-slow:80")
	if busy == nil || busy.quiet() {
		t.Fatalf("gated host: entry %+v, want one with a flight out", busy)
	}

	tpl := testTemplate(t, "quick")
	for i := 0; i < 3*minSweep; i++ {
		err := p.Deliver(context.Background(), &Batch{
			Addr:    fmt.Sprintf("http://dest-q%d:80/sink", i),
			Entries: []Entry{{Frame: tpl, SubID: "s"}},
		})
		if err != nil {
			t.Fatalf("Deliver to host %d: %v", i, err)
		}
		if got := hostEntry(p, "dest-slow:80"); got != busy {
			t.Fatalf("after %d quiet hosts the in-flight host's entry changed: %p, want %p", i+1, got, busy)
		}
	}
	if got := p.ActiveWriters(); got > minSweep+2 {
		t.Fatalf("pool holds %d hosts after %d quiet ones, want at most %d", got, 3*minSweep, minSweep+2)
	}

	close(w.gates["mark-slow"])
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	if !busy.quiet() || p.Inflight() != 0 {
		t.Fatalf("after the flight landed: entry %+v, Inflight %d, want quiet and 0", busy, p.Inflight())
	}
}

// TestCloseRejectsAndDrains: Close drains queued batches, and later
// Delivers fail with ErrClosed.
func TestCloseRejectsAndDrains(t *testing.T) {
	c := &capture{}
	p := newTestPool(c, Config{})
	tpl := testTemplate(t, "hello")
	if err := p.Deliver(context.Background(), &Batch{
		Addr:    "http://dest-h:80/sink",
		Entries: []Entry{{Frame: tpl, SubID: "s"}},
	}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	err := p.Deliver(context.Background(), &Batch{
		Addr:    "http://dest-h:80/sink",
		Entries: []Entry{{Frame: tpl, SubID: "s"}},
	})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Deliver after Close: %v, want ErrClosed", err)
	}
}

// TestHostOf pins the grouping key.
func TestHostOf(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"http://h:80/a/b?x=1", "h:80"},
		{"https://h/a", "h"},
		{"http://h:8080", "h:8080"},
		{"svc://sink-1", "sink-1"},
		{"opaque-address", "opaque-address"},
		{"http://", "http://"},
	} {
		if got := hostOf(tc.in); got != tc.want {
			t.Errorf("hostOf(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestMixedFramesSeparateEnvelopes: entries whose frames differ (a relayed
// publish bakes a different head) must not share an envelope even at one
// address.
func TestMixedFramesSeparateEnvelopes(t *testing.T) {
	c := &capture{}
	p := newTestPool(c, Config{BatchWindow: 100 * time.Millisecond})
	defer p.Close()
	plain := testTemplate(t, "hello")
	relayed := func() *mediation.Template {
		n := mediation.Notification{
			Topic:   testTopic,
			Payload: xmldom.Elem("urn:dw", "Ev", "hello"),
			Relay:   &mediation.Relay{Origin: "bk-x", ID: "m1", Hops: 1},
		}
		plan := mediation.DeliveryPlan{
			Dialect:         mediation.Dialect{Family: mediation.FamilyWSN, WSN: wsnt.V1_3},
			SubscriptionID:  "seed",
			ManagerAddress:  "svc://broker/manager",
			ProducerAddress: "svc://broker",
		}
		tpl, err := mediation.NewTemplate(n, plan)
		if err != nil {
			t.Fatal(err)
		}
		return tpl
	}()
	err := p.Deliver(context.Background(), &Batch{
		Addr: "http://dest-i:80/sink",
		Entries: []Entry{
			{Frame: plain, SubID: "a"},
			{Frame: relayed, SubID: "b"},
			{Frame: plain, SubID: "c"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.count(); got != 2 {
		t.Fatalf("wire sends = %d, want 2 (plain + relayed frames)", got)
	}
}

// ceTemplate builds a batched-mode CloudEvents template (JSON array
// coalescing with "," separators).
func ceTemplate(t *testing.T, payloadText string) *mediation.Template {
	t.Helper()
	n := mediation.Notification{Topic: testTopic, Payload: xmldom.Elem("urn:dw", "Ev", payloadText)}
	plan := mediation.DeliveryPlan{
		Dialect:         mediation.Dialect{Family: mediation.FamilyCE},
		CEMode:          mediation.CEBatched,
		ProducerAddress: "svc://broker",
	}
	tpl, err := mediation.NewTemplate(n, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !tpl.Coalescible() {
		t.Fatal("CE batched template not coalescible")
	}
	return tpl
}

// TestCEBatchedEntriesCoalesceWithSeparator: CloudEvents batched-mode
// entries bound for one host share one envelope, and the coalesced body is
// a well-formed JSON array — the entry separator the XML frames never
// needed must appear between CE entries.
func TestCEBatchedEntriesCoalesceWithSeparator(t *testing.T) {
	c := &capture{}
	p := newTestPool(c, Config{BatchWindow: 100 * time.Millisecond})
	defer p.Close()
	tpl := ceTemplate(t, "hello")
	err := p.Deliver(context.Background(), &Batch{
		Addr:        "http://dest-ce:80/sink",
		ContentType: "application/cloudevents-batch+json",
		Entries: []Entry{
			{Frame: tpl, SubID: "urn:uuid:ev-1"},
			{Frame: tpl, SubID: "urn:uuid:ev-2"},
			{Frame: tpl, SubID: "urn:uuid:ev-3"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.count(); got != 1 {
		t.Fatalf("wire sends = %d, want 1 coalesced array", got)
	}
	var events []map[string]any
	if err := json.Unmarshal(c.body(0), &events); err != nil {
		t.Fatalf("coalesced body is not a JSON array: %v\n%s", err, c.body(0))
	}
	if len(events) != 3 {
		t.Fatalf("array carries %d events, want 3", len(events))
	}
	for i, want := range []string{"urn:uuid:ev-1", "urn:uuid:ev-2", "urn:uuid:ev-3"} {
		if events[i]["id"] != want {
			t.Fatalf("event %d id = %v, want %s", i, events[i]["id"], want)
		}
	}
	// CE frames must never coalesce with XML frames.
	if tpl.FrameEqual(testTemplate(t, "hello")) {
		t.Fatal("CE and WSN frames must not be frame-equal")
	}
}

// TestCloseMidWindowDrainsParkedRound pins the batch-window shutdown path:
// a writer parked in its BatchWindow wait when the pool closes must flush
// the already-dequeued round, not drop it — the blocked Deliver gets its
// real result and the send is accounted.
func TestCloseMidWindowDrainsParkedRound(t *testing.T) {
	c := &capture{}
	p := newTestPool(c, Config{BatchWindow: time.Hour}) // park essentially forever
	tpl := testTemplate(t, "hello")
	res := make(chan error, 1)
	go func() {
		res <- p.Deliver(context.Background(), &Batch{
			Addr:    "http://dest-w:80/sink",
			Entries: []Entry{{Frame: tpl, SubID: "s1"}},
		})
	}()
	// Wait until the writer has dequeued the batch and parked in the window.
	deadline := time.Now().Add(2 * time.Second)
	for p.QueueDepth() > 0 || p.ActiveWriters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up the batch")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let it enter the window wait
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case err := <-res:
		if err != nil {
			t.Fatalf("Deliver = %v, want nil (flushed on close)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Deliver still blocked after Close — round dropped unaccounted")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
	if c.count() != 1 {
		t.Fatalf("sends = %d, want 1", c.count())
	}
}

// TestCloseDeliverRaceAccountsEveryBatch hammers Deliver against Close:
// every Deliver must resolve (sent or ErrClosed) — never hang with its
// batch stranded in a dead writer's queue — and every nil result must be
// matched by a wire send.
func TestCloseDeliverRaceAccountsEveryBatch(t *testing.T) {
	for round := 0; round < 50; round++ {
		c := &capture{}
		p := newTestPool(c, Config{})
		tpl := testTemplate(t, "hello")
		const n = 8
		results := make(chan error, n)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				results <- p.Deliver(context.Background(), &Batch{
					Addr:    fmt.Sprintf("http://dest-r%d:80/sink", i%2),
					Entries: []Entry{{Frame: tpl, SubID: "s"}},
				})
			}(i)
		}
		close(start)
		p.Close()
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatal("a Deliver racing Close never resolved")
		}
		close(results)
		delivered := 0
		for err := range results {
			switch err {
			case nil:
				delivered++
			case ErrClosed:
			default:
				t.Fatalf("unexpected Deliver error: %v", err)
			}
		}
		sent := 0
		for i := 0; i < c.count(); i++ {
			sent += entryCount(c.body(i))
		}
		if sent != delivered {
			t.Fatalf("round %d: %d entries on the wire, %d Delivers reported success", round, sent, delivered)
		}
	}
}
