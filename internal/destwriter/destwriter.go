// Package destwriter is the per-destination delivery layer: it groups
// outbound notifications by destination host, keeps one bounded queue per
// host, and — where the subscriber's dialect allows it — coalesces multiple
// pending Notify payloads for the same destination into a single WSN 1.3
// multi-NotificationMessage envelope.
//
// Scheduling is drain on demand: a host owns no goroutine. Whoever makes
// progress possible — the Deliver that enqueues, the BatchWindow timer it
// arms, or a flight that just finished — collects the next round under the
// pool lock and starts a flight for it; the only goroutines are flights, and
// a host with no work is just an idle map entry.
//
// The paper's comparative measurements, and the render-once work that
// followed them (B13), leave one linear cost in the fan-out path: one HTTP
// round trip per subscriber. This layer attacks that cost the way the
// CORBA-era facility deployments did — batch per channel — without giving
// up the dispatch engine's reliability semantics: a Deliver call blocks
// until its batch is on the wire (or failed), so retry, circuit-breaker and
// DLQ accounting happen at batch granularity exactly where they always did,
// and the conservation law Matched == Delivered + Dropped + Failed +
// DeadLettered is untouched.
//
// Pipelining: batching alone still leaves each host exactly one in-flight
// request, so a host's throughput is bounded by 1/RTT envelopes per second
// no matter how much is queued. With MaxInflightPerHost > 1 a host keeps
// collecting and coalescing rounds while fewer than W flights are out, W
// being the per-host window. W is either pinned at the
// configured maximum or, with AdaptiveWindow, governed by an AIMD
// controller: +1 after a full window of consecutive successful sends,
// halved (floor 1) on any send failure — timeouts, 5xx and refused
// connections all arrive here as send errors. The window never exceeds the
// pooled transport's per-host connection budget (ConnCap), so every slot
// maps to a connection the transport is allowed to open and ConnCounter
// accounting stays exact.
//
// Ordering: batches carrying the same non-empty Key (the subscription id)
// are never in flight concurrently: collecting a round skips a batch while
// its key is in flight (and every later batch of that key, so they stay in
// arrival order) and picks it up when the conflicting flight completes —
// entries for one subscriber never ride two windows out of order, whatever
// the window size.
//
// Backpressure: each host's queue is bounded. A Deliver into a full queue
// blocks until space frees or the caller's context expires — and the
// caller is the dispatch engine's retry layer, whose per-attempt timeout
// turns sustained pressure from a slow host into that subscriber's
// existing retry → breaker → DLQ path instead of unbounded broker memory.
package destwriter

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mediation"
)

// ErrCanceled reports a batch whose subscription was cancelled between
// enqueue and flush: nothing was sent. Callers that treat cancellation as
// benign (the subscriber asked to go away) match on it.
var ErrCanceled = errors.New("destwriter: subscription cancelled before send")

// ErrClosed reports a Deliver against a closed pool.
var ErrClosed = errors.New("destwriter: pool closed")

// Entry is one notification for one subscriber. Either Frame is a
// coalescible render template (WSN 1.3 wrapped deliveries) whose entry is
// stamped with SubID into a shared envelope, or Frame is nil and Body
// carries a complete pre-rendered envelope that is sent as-is over the
// host's keep-alive connection.
type Entry struct {
	Frame *mediation.Template
	SubID string
	Body  []byte
}

// Batch is one subscriber's pending deliveries: every entry shares the
// subscriber's consumer address and content type. Live, when non-nil, is
// consulted at flush time; a false result suppresses the whole batch with
// ErrCanceled (a subscription cancelled mid-window must not be delivered).
//
// Key, when non-empty, is the delivery-order key — typically the
// subscription id. Batches sharing a Key are flushed in arrival order and
// never ride two concurrent in-flight windows; an empty Key opts out of
// the ordering constraint.
type Batch struct {
	Addr        string
	ContentType string
	Key         string
	Live        func() bool
	Entries     []Entry
}

// Config parameterises a Pool.
type Config struct {
	// Send puts one serialised envelope on the wire. Required.
	// Implementations must not retain body after returning.
	Send func(ctx context.Context, addr, contentType string, body []byte) error
	// NextMessageID mints the wsa:MessageID for each coalesced envelope.
	// Required when coalescible entries are delivered.
	NextMessageID func() string
	// BatchMax caps entries per coalesced envelope. Default 64.
	BatchMax int
	// BatchWindow is how long a round stays open after its first batch for
	// more batches to coalesce. Zero (the default) is purely opportunistic:
	// whatever is already queued coalesces, nothing waits.
	BatchWindow time.Duration
	// QueueDepth bounds each host's pending queue. Default 1024.
	QueueDepth int
	// MaxInflightPerHost caps concurrent in-flight flush rounds per host.
	// Default 1: one request on the wire at a time.
	// Values above ConnCap are clamped to it.
	MaxInflightPerHost int
	// AdaptiveWindow, when true, governs each host's in-flight window with
	// an AIMD controller inside [1, MaxInflightPerHost]: additive increase
	// after a window of consecutive successful sends, multiplicative
	// decrease (halve, floor 1) on any send failure. When false the window
	// is pinned at MaxInflightPerHost.
	AdaptiveWindow bool
	// ConnCap is the pooled transport's per-host connection budget. A
	// window wider than the budget would just queue inside the transport,
	// so the effective maximum is min(MaxInflightPerHost, ConnCap).
	// Zero means no clamp.
	ConnCap int
	// OnBatchSize, when set, observes the entry count of every envelope
	// put on the wire (1 for raw sends) — the batch-size histogram hook.
	OnBatchSize func(entries int)
}

func (c Config) batchMax() int {
	if c.BatchMax > 0 {
		return c.BatchMax
	}
	return 64
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 1024
}

func (c Config) maxInflight() int {
	w := c.MaxInflightPerHost
	if w <= 0 {
		w = 1
	}
	if c.ConnCap > 0 && w > c.ConnCap {
		w = c.ConnCap
	}
	return w
}

// pending is one queued Batch plus its completion channel.
type pending struct {
	b    *Batch
	err  error
	done chan error
}

// host is one destination's queue and in-flight window state, all guarded
// by Pool.mu.
type host struct {
	q      []*pending      // waiting batches, arrival order, bounded by QueueDepth
	round  []*pending      // the open round: collected, waiting out its BatchWindow
	timer  *time.Timer     // the open round's BatchWindow deadline, nil when unarmed
	space  chan struct{}   // closed when q shrinks; nil while no Deliver waits on a full q
	window int             // current AIMD window, in [1, maxInflight]
	streak int             // consecutive successful sends since the last increase
	sends  int             // flush rounds currently in flight
	busy   map[string]bool // ordering keys claimed by in-flight rounds
}

// quiet reports a host with nothing queued, collected or in flight.
func (h *host) quiet() bool { return len(h.q) == 0 && len(h.round) == 0 && h.sends == 0 }

// wake releases every Deliver blocked on the full queue to look again.
func (h *host) wake() {
	if h.space != nil {
		close(h.space)
		h.space = nil
	}
}

// Pool owns the per-host queues.
type Pool struct {
	cfg     Config
	mu      sync.Mutex
	host    map[string]*host
	sweepAt int // map size at which quiet hosts are dropped
	done    bool
	wg      sync.WaitGroup // flights

	envelopes  atomic.Uint64 // coalesced envelopes sent
	entries    atomic.Uint64 // entries carried by coalesced envelopes
	rawSends   atomic.Uint64 // envelopes sent without coalescing
	canceled   atomic.Uint64 // batches suppressed by a Live() == false
	sendErrors atomic.Uint64 // wire sends that returned an error

	windowDown   atomic.Uint64 // AIMD multiplicative decreases
	peakInflight atomic.Int64  // max concurrent sends observed on one host
}

// NewPool builds a pool. Config.Send is required.
func NewPool(cfg Config) *Pool {
	if cfg.Send == nil {
		panic("destwriter: Config.Send is required")
	}
	return &Pool{cfg: cfg, host: map[string]*host{}, sweepAt: minSweep}
}

// hostOf extracts the grouping key from a consumer address: the URL
// authority for http(s) endpoints (subscribers behind one host share a
// queue and its connections), the full address otherwise.
func hostOf(addr string) string {
	rest := addr
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	} else {
		return addr
	}
	if i := strings.IndexAny(rest, "/?#"); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return addr
	}
	return rest
}

// minSweep is the smallest host-map size at which quiet hosts are dropped.
const minSweep = 64

// hostFor returns the host's entry, creating it on first use. A quiet host
// keeps its entry — and with it the window the AIMD controller learned —
// until the map has doubled since the last sweep; then every quiet entry
// goes, so the map stays proportional to the hosts that have work. Callers
// hold p.mu.
func (p *Pool) hostFor(name string) *host {
	h := p.host[name]
	if h == nil {
		if len(p.host) >= p.sweepAt {
			for n, old := range p.host {
				if old.quiet() {
					delete(p.host, n)
				}
			}
			p.sweepAt = 2*len(p.host) + minSweep
		}
		h = &host{window: 1, busy: map[string]bool{}}
		p.host[name] = h
	}
	return h
}

// Deliver queues one subscriber's batch for its destination host and
// blocks until the batch is sent (nil), suppressed (ErrCanceled), failed
// (the wire error), or the context expires. Blocking is the backpressure:
// the bounded host queue pushes sustained pressure back into the dispatch
// engine's per-attempt timeout and from there into retry/breaker/DLQ.
func (p *Pool) Deliver(ctx context.Context, b *Batch) error {
	if len(b.Entries) == 0 {
		return nil
	}
	name := hostOf(b.Addr)
	pd := &pending{b: b, done: make(chan error, 1)}
	for {
		p.mu.Lock()
		if p.done {
			p.mu.Unlock()
			return ErrClosed
		}
		h := p.hostFor(name)
		if len(h.q) < p.cfg.queueDepth() {
			h.q = append(h.q, pd)
			p.pump(h, false)
			p.mu.Unlock()
			break
		}
		if h.space == nil {
			h.space = make(chan struct{})
		}
		space := h.space
		p.mu.Unlock()
		select {
		case <-space:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case err := <-pd.done:
		return err
	case <-ctx.Done():
		// The host still owns the batch and may yet send it; done is
		// buffered so its completion is never lost, just unobserved. The
		// caller's retry layer treats this attempt as failed — the same
		// at-least-once contract every retried send already has.
		return ctx.Err()
	}
}

// Close flushes every host's queue, window and key order still honoured but
// no BatchWindow waited out, and returns when the last flight has landed.
// Deliver calls racing Close either made the queue, and are sent, or fail
// with ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return
	}
	p.done = true
	for _, h := range p.host {
		h.wake()
		p.pump(h, true)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// ActiveWriters reports the hosts the pool holds state for: every host with
// work, plus the quiet ones not yet swept.
func (p *Pool) ActiveWriters() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.host)
}

// QueueDepth reports the total number of queued batches across all hosts:
// those waiting for a free window slot or for a same-key flight to land,
// not the round already collected.
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, h := range p.host {
		n += len(h.q)
	}
	return n
}

// Envelopes reports coalesced envelopes put on the wire.
func (p *Pool) Envelopes() uint64 { return p.envelopes.Load() }

// CoalescedEntries reports entries carried by coalesced envelopes.
func (p *Pool) CoalescedEntries() uint64 { return p.entries.Load() }

// RawSends reports envelopes sent individually (non-coalescible).
func (p *Pool) RawSends() uint64 { return p.rawSends.Load() }

// Canceled reports batches suppressed because their subscription died
// between enqueue and flush.
func (p *Pool) Canceled() uint64 { return p.canceled.Load() }

// SendErrors reports wire sends that returned an error.
func (p *Pool) SendErrors() uint64 { return p.sendErrors.Load() }

// Inflight reports flush rounds currently in flight across all hosts —
// each holds at most one wire request at a time, so this is the pool's
// in-flight request occupancy.
func (p *Pool) Inflight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, h := range p.host {
		n += h.sends
	}
	return n
}

// Window reports the widest current per-host in-flight window, 0 when the
// pool knows no host. With AdaptiveWindow off this is the configured
// (clamped) maximum.
func (p *Pool) Window() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	max := 0
	for _, h := range p.host {
		if cur := p.window(h); cur > max {
			max = cur
		}
	}
	return max
}

// PeakInflight reports the maximum concurrent in-flight sends ever
// observed on a single host — proof (or disproof) that the window did
// real pipelining work.
func (p *Pool) PeakInflight() int { return int(p.peakInflight.Load()) }

// WindowDecreases reports AIMD multiplicative-decrease events (a window
// actually shrinking in response to a send failure).
func (p *Pool) WindowDecreases() uint64 { return p.windowDown.Load() }

// CoalesceRatio reports the mean entries per wire send: 1.0 means no
// coalescing ever happened, N means N subscriber deliveries per round trip.
func (p *Pool) CoalesceRatio() float64 {
	sends := p.envelopes.Load() + p.rawSends.Load()
	if sends == 0 {
		return 0
	}
	return float64(p.entries.Load()+p.rawSends.Load()) / float64(sends)
}

// window returns h's effective window. Callers hold p.mu.
func (p *Pool) window(h *host) int {
	if !p.cfg.AdaptiveWindow {
		return p.cfg.maxInflight()
	}
	return h.window
}

// pump is the one scheduling step, run under p.mu by whoever may have made
// progress possible. While the window has a free slot it collects a round
// from the queue; the round flies at once when it is full, when no
// BatchWindow is configured or when flush says its window has run out (the
// timer, or Close), and otherwise stays open behind a BatchWindow timer,
// topped up by every later pump. At most one round is open per host, and
// one is opened only below the window, so flights never exceed it.
func (p *Pool) pump(h *host, flush bool) {
	max := p.cfg.batchMax()
	for {
		if len(h.round) > 0 || h.sends < p.window(h) {
			h.collect(max)
		}
		if len(h.round) == 0 {
			return
		}
		if !flush && !p.done && len(h.round) < max && p.cfg.BatchWindow > 0 {
			if h.timer == nil {
				var t *time.Timer
				t = time.AfterFunc(p.cfg.BatchWindow, func() {
					p.mu.Lock()
					if h.timer == t { // else the round it timed already flew
						p.pump(h, true)
					}
					p.mu.Unlock()
				})
				h.timer = t
			}
			return
		}
		p.launch(h)
		flush = false
	}
}

// collect moves batches from the queue into the open round, oldest first,
// up to max per round. A batch whose ordering key is in flight stays
// queued, and so does every later batch of that key: same-key batches
// reach the wire in arrival order, one flight at a time.
func (h *host) collect(max int) {
	var skipped map[string]bool
	kept := h.q[:0]
	for i, pd := range h.q {
		if len(h.round) >= max {
			kept = append(kept, h.q[i:]...)
			break
		}
		if k := pd.b.Key; k != "" && (h.busy[k] || skipped[k]) {
			if skipped == nil {
				skipped = map[string]bool{}
			}
			skipped[k] = true
			kept = append(kept, pd)
			continue
		}
		h.round = append(h.round, pd)
	}
	if len(kept) == len(h.q) {
		return
	}
	for i := len(kept); i < len(h.q); i++ {
		h.q[i] = nil // release collected batches for GC
	}
	h.q = kept
	h.wake()
}

// launch starts a flight for the open round, claiming a window slot and the
// round's ordering keys. Callers hold p.mu.
func (p *Pool) launch(h *host) {
	round := h.round
	h.round = nil
	if h.timer != nil {
		h.timer.Stop()
		h.timer = nil
	}
	h.sends++
	if s := int64(h.sends); s > p.peakInflight.Load() {
		p.peakInflight.Store(s)
	}
	for _, pd := range round {
		if pd.b.Key != "" {
			h.busy[pd.b.Key] = true
		}
	}
	p.wg.Add(1)
	go p.flight(h, round)
}

// flight flushes one round on its own goroutine, releases its slot and its
// ordering keys, starts whatever that unblocked, and only then reports each
// batch's result — so a caller that sees its Deliver return finds the host
// already settled.
func (p *Pool) flight(h *host, round []*pending) {
	defer p.wg.Done()
	p.flushRound(h, round)
	p.mu.Lock()
	h.sends--
	for _, pd := range round {
		delete(h.busy, pd.b.Key)
	}
	p.pump(h, false)
	p.mu.Unlock()
	for _, pd := range round {
		pd.done <- pd.err
	}
}

// recordSend feeds one wire-send outcome to the AIMD controller.
func (p *Pool) recordSend(h *host, err error) {
	if !p.cfg.AdaptiveWindow {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		h.streak = 0
		if h.window > 1 {
			h.window /= 2
			p.windowDown.Add(1)
		}
		return
	}
	h.streak++
	if h.window < p.cfg.maxInflight() && h.streak >= h.window {
		h.window++
		h.streak = 0
		p.pump(h, false) // the new slot may have work waiting
	}
}

// group is one coalesced envelope in the making: frame-equal entries bound
// for one consumer address.
type group struct {
	addr        string
	contentType string
	frame       *mediation.Template
	subIDs      []string
	frames      []*mediation.Template // per-entry template (same frame, maybe different payload)
	owners      []*pending            // per-entry contributing batch, for error fan-in
}

// bufPool recycles envelope scratch buffers across flights.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// flushRound sends one collected round: coalescible entries grouped by
// (address, frame) into multi-NotificationMessage envelopes, everything
// else sent as-is, each batch's combined result left in its pending. Every
// send outcome feeds the AIMD controller.
func (p *Pool) flushRound(h *host, round []*pending) {
	max := p.cfg.batchMax()

	var groups []*group
	type rawSend struct {
		pd   *pending
		body []byte
	}
	var raws []rawSend

	for _, pd := range round {
		if pd.b.Live != nil && !pd.b.Live() {
			pd.err = ErrCanceled
			p.canceled.Add(1)
			continue
		}
		for i := range pd.b.Entries {
			e := &pd.b.Entries[i]
			if !e.Frame.Coalescible() {
				raws = append(raws, rawSend{pd: pd, body: e.Body})
				continue
			}
			var g *group
			for _, cand := range groups {
				if cand.addr == pd.b.Addr && len(cand.subIDs) < max && cand.frame.FrameEqual(e.Frame) {
					g = cand
					break
				}
			}
			if g == nil {
				g = &group{addr: pd.b.Addr, contentType: pd.b.ContentType, frame: e.Frame}
				groups = append(groups, g)
			}
			g.subIDs = append(g.subIDs, e.SubID)
			g.frames = append(g.frames, e.Frame)
			g.owners = append(g.owners, pd)
		}
	}

	bp := bufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for _, g := range groups {
		// Withhold entries whose batch already failed earlier in this
		// round: the whole batch will be retried, and putting its later
		// entries on the wire now would land them ahead of the earlier
		// ones the retry re-sends — a per-subscriber reorder.
		live := g.subIDs[:0]
		frames := g.frames[:0]
		var owners []*pending
		for i, pd := range g.owners {
			if pd.err != nil {
				continue
			}
			live = append(live, g.subIDs[i])
			frames = append(frames, g.frames[i])
			if len(owners) == 0 || owners[len(owners)-1] != pd {
				owners = append(owners, pd)
			}
		}
		if len(live) == 0 {
			continue
		}
		buf = buf[:0]
		buf = g.frame.AppendFrameHead(buf, g.addr, p.cfg.NextMessageID())
		for i, sid := range live {
			if i > 0 {
				buf = g.frame.AppendEntrySep(buf)
			}
			buf = frames[i].AppendEntry(buf, sid)
		}
		buf = g.frame.AppendFrameTail(buf)
		err := p.send(h, g.addr, g.contentType, buf)
		p.envelopes.Add(1)
		p.entries.Add(uint64(len(live)))
		if p.cfg.OnBatchSize != nil {
			p.cfg.OnBatchSize(len(live))
		}
		if err != nil {
			p.sendErrors.Add(1)
			for _, pd := range owners {
				if pd.err == nil {
					pd.err = err
				}
			}
		}
	}
	*bp = buf[:0]
	bufPool.Put(bp)
	for _, r := range raws {
		if r.pd.err != nil {
			continue // earlier send for this batch failed; retry covers it
		}
		err := p.send(h, r.pd.b.Addr, r.pd.b.ContentType, r.body)
		p.rawSends.Add(1)
		if p.cfg.OnBatchSize != nil {
			p.cfg.OnBatchSize(1)
		}
		if err != nil {
			p.sendErrors.Add(1)
			if r.pd.err == nil {
				r.pd.err = err
			}
		}
	}
}

// send puts one envelope on the wire. Config.Send owns the deadline: no
// caller's context outlives its Deliver, and a flight serves many.
func (p *Pool) send(h *host, addr, contentType string, body []byte) error {
	err := p.cfg.Send(context.Background(), addr, contentType, body)
	p.recordSend(h, err)
	return err
}
