package dispatch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/topics"
)

// Config configures an Engine. The zero value is usable: shard and worker
// counts derive from GOMAXPROCS, queues default to 256 slots and eviction
// to 3 consecutive failures.
type Config struct {
	// Shards is the registry stripe count (default: GOMAXPROCS rounded
	// up to a power of two, minimum 4).
	Shards int
	// MaxWorkers caps the goroutines draining scheduled subscribers
	// (default 8×GOMAXPROCS, at least 32 — deliveries block on destination
	// I/O, so the useful count is far above CPU parallelism). Workers live
	// only while the run queue holds work.
	MaxWorkers int
	// QueueCap is the default Queued ring bound (default 256).
	QueueCap int
	// FailureLimit is the default consecutive-failure eviction threshold
	// (default 3; subscribers can override, negative disables). It applies
	// only to subscribers without a circuit breaker — a breaker replaces
	// eviction with pause/probe, evicting only after BreakerPolicy.MaxTrips.
	FailureLimit int
	// Clock is the deadline time source (default time.Now).
	Clock func() time.Time
	// Retry is the default per-subscription retry policy (nil = no
	// retries; subscribers override with Sub.Retry).
	Retry *RetryPolicy
	// Breaker is the default per-subscription circuit breaker policy
	// (nil = no breaker; subscribers override with Sub.Breaker).
	Breaker *BreakerPolicy
	// DLQCap bounds the engine's dead-letter queue. 0 disables the DLQ:
	// messages exhausting their retries count as Failed instead of being
	// captured.
	DLQCap int
	// DLQOverflow selects what a full DLQ does with a new dead letter:
	// DropNewest (the zero value) rejects it — the letter counts as
	// Failed instead — while DropOldest rotates the oldest letter out so
	// the newest failure evidence is kept.
	DLQOverflow Overflow
	// DLQFetch re-reads a message from the owner's durable event log by
	// position. When set, dead letters for positioned messages (Pos != 0)
	// are stored slim — topic and position only, payload dropped — and
	// rehydrated through this hook at replay time, so the DLQ no longer
	// pins a copy of every failed payload. A fetch miss (the position was
	// compacted away) discards the letter at replay.
	DLQFetch func(pos uint64) (Message, bool)
	// Sleep runs retry backoff waits (default time.Sleep; tests inject a
	// recorder or no-op).
	Sleep func(time.Duration)
	// After schedules the breaker cool-down re-dispatch (default
	// time.AfterFunc; tests inject a manual trigger).
	After func(time.Duration, func())
	// Obs, when set, records per-stage latency histograms, breaker
	// transitions and sampled lifecycle traces, and surfaces the engine's
	// counters and gauges as scrape-time series. Nil disables all of it at
	// the cost of a nil check on the dispatch path.
	Obs *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 8 * runtime.GOMAXPROCS(0)
		if c.MaxWorkers < 32 {
			c.MaxWorkers = 32
		}
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.FailureLimit == 0 {
		c.FailureLimit = 3
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.After == nil {
		c.After = func(d time.Duration, fn func()) { time.AfterFunc(d, fn) }
	}
	return c
}

// sub is the engine-side record of one subscriber.
type sub struct {
	id        string
	seq       uint64 // registration order, drives deterministic fan-out order
	opts      Sub
	retry     RetryPolicy // resolved (defaults applied); MaxAttempts ≥ 1
	brk       *breaker    // nil when the subscription has no breaker
	jitterKey uint64      // per-subscriber backoff jitter key

	deadline atomic.Int64 // unix nanos, 0 = none
	paused   atomic.Bool
	closed   atomic.Bool

	mu         sync.Mutex
	q          ring // Queued ring / Pull buffer / pause buffer / breaker buffer
	accounted  int  // queued messages currently counted in Engine.wg
	batch      []Message
	scheduled  bool
	timerArmed bool // a breaker cool-down re-dispatch is pending
	failures   int
	evicted    bool
}

// queueCap resolves the subscriber's effective queue bound.
func (s *sub) queueCap(e *Engine) int {
	if s.opts.QueueCap > 0 {
		return s.opts.QueueCap
	}
	if s.opts.Mode == Queued {
		return e.cfg.QueueCap
	}
	return 0 // pull/pause buffers default to unbounded
}

// Engine is the sharded dispatch engine.
type Engine struct {
	cfg Config
	reg *registry
	seq atomic.Uint64
	dlq *dlq // nil when Config.DLQCap is 0

	published    atomic.Uint64
	matched      atomic.Uint64
	delivered    atomic.Uint64
	dropped      atomic.Uint64
	failed       atomic.Uint64
	deadLettered atomic.Uint64
	retries      atomic.Uint64
	breakerTrips atomic.Uint64

	wg sync.WaitGroup // queued deliveries not yet attempted

	runMu   sync.Mutex
	runQ    []*sub // scheduled subscribers awaiting a worker
	workers int    // live worker goroutines
	closing bool
}

// New builds an engine.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg.withDefaults()}
	e.reg = newRegistry(e.cfg.Shards)
	e.dlq = newDLQ(e.cfg.DLQCap, e.cfg.DLQOverflow)
	if e.cfg.Obs != nil {
		e.cfg.Obs.BindEngine(
			func() obs.EngineStats {
				s := e.Stats()
				return obs.EngineStats{
					Published: s.Published, Matched: s.Matched,
					Delivered: s.Delivered, Dropped: s.Dropped,
					Failed: s.Failed, DeadLettered: s.DeadLettered,
					Retries: s.Retries, Trips: s.BreakerTrips,
				}
			},
			obs.EngineGauges{
				Subscribers:  e.Count,
				QueuedTotal:  e.QueuedTotal,
				OpenBreakers: e.OpenBreakers,
				DLQDepth:     e.DLQLen,
				Workers:      e.WorkerCount,
			})
	}
	return e
}

// Stats snapshots the counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Published:    e.published.Load(),
		Matched:      e.matched.Load(),
		Delivered:    e.delivered.Load(),
		Dropped:      e.dropped.Load(),
		Failed:       e.failed.Load(),
		DeadLettered: e.deadLettered.Load(),
		Retries:      e.retries.Load(),
		BreakerTrips: e.breakerTrips.Load(),
	}
}

// Count reports registered subscribers.
func (e *Engine) Count() int { return e.reg.count() }

// QueuedTotal reports the messages currently buffered across every
// subscriber ring (queued, pull, pause and breaker buffers). It walks the
// registry taking each subscriber's lock briefly — a monitoring call, not
// a hot-path one.
func (e *Engine) QueuedTotal() int {
	total := 0
	e.reg.forEach(func(s *sub) {
		s.mu.Lock()
		total += s.q.len()
		s.mu.Unlock()
	})
	return total
}

// OpenBreakers reports how many subscriptions currently have a non-closed
// (open or half-open) circuit breaker.
func (e *Engine) OpenBreakers() int {
	open := 0
	e.reg.forEach(func(s *sub) {
		if s.brk != nil && s.brk.State() != BreakerClosed {
			open++
		}
	})
	return open
}

// Subscribe registers a subscriber.
func (e *Engine) Subscribe(o Sub) error {
	if o.ID == "" {
		return ErrUnknownSub
	}
	s := &sub{id: o.ID, opts: o, seq: e.seq.Add(1), jitterKey: hashKey(o.ID)}
	rp := o.Retry
	if rp == nil {
		rp = e.cfg.Retry
	}
	if rp != nil {
		s.retry = rp.withDefaults()
	} else {
		s.retry = RetryPolicy{}.withDefaults()
	}
	bp := o.Breaker
	if bp == nil {
		bp = e.cfg.Breaker
	}
	if bp != nil {
		s.brk = newBreaker(*bp)
	}
	if o.Paused {
		s.paused.Store(true)
	}
	if !o.Deadline.IsZero() {
		s.deadline.Store(o.Deadline.UnixNano())
	}
	if !e.reg.add(s) {
		return ErrDuplicateSub
	}
	return nil
}

// BreakerState reports a subscription's circuit breaker state; ok is false
// when the id is unknown or the subscription has no breaker.
func (e *Engine) BreakerState(id string) (state BreakerState, ok bool) {
	s := e.reg.lookup(id)
	if s == nil || s.brk == nil {
		return BreakerClosed, false
	}
	return s.brk.State(), true
}

// Unsubscribe removes a subscriber, discarding anything still queued for
// it (counted as dropped). It reports whether the id was registered.
func (e *Engine) Unsubscribe(id string) bool {
	s := e.reg.remove(id)
	if s == nil {
		return false
	}
	s.closed.Store(true)
	s.mu.Lock()
	n := s.q.len()
	s.q.reset()
	acc := s.accounted
	s.accounted = 0
	s.batch = nil
	s.mu.Unlock()
	if n > 0 {
		e.dropped.Add(uint64(n))
	}
	for i := 0; i < acc; i++ {
		e.wg.Done()
	}
	return true
}

// SetDeadline updates a subscriber's soft-state expiry; zero clears it.
func (e *Engine) SetDeadline(id string, t time.Time) {
	if s := e.reg.lookup(id); s != nil {
		if t.IsZero() {
			s.deadline.Store(0)
		} else {
			s.deadline.Store(t.UnixNano())
		}
	}
}

// Pause suspends a subscriber: with PauseBuffer its matched messages queue
// until Resume, without it they skip the subscriber entirely.
func (e *Engine) Pause(id string) {
	if s := e.reg.lookup(id); s != nil {
		s.paused.Store(true)
	}
}

// Resume re-enables delivery, flushing a PauseBuffer subscriber's backlog:
// inline (on the calling goroutine, in arrival order) for Sync
// subscribers, through the worker pool for Queued ones.
func (e *Engine) Resume(id string) {
	s := e.reg.lookup(id)
	if s == nil {
		return
	}
	s.paused.Store(false)
	if !s.opts.PauseBuffer {
		return
	}
	switch s.opts.Mode {
	case Sync:
		if s.brk != nil {
			// Route the backlog through the worker pool so breaker
			// gating (pause, cool-down, probe) applies to the flush.
			s.mu.Lock()
			sched := !s.scheduled && s.q.len() > 0
			if sched {
				s.scheduled = true
			}
			s.mu.Unlock()
			if sched {
				e.schedule(s)
			}
			return
		}
		for {
			s.mu.Lock()
			m, ok := s.q.pop()
			s.mu.Unlock()
			if !ok {
				return
			}
			e.deliverSync(s, m)
		}
	case Queued:
		s.mu.Lock()
		add := s.q.len() - s.accounted
		s.accounted = s.q.len()
		sched := !s.scheduled && s.q.len() > 0
		if sched {
			s.scheduled = true
		}
		s.mu.Unlock()
		if add > 0 {
			e.wg.Add(add)
		}
		if sched {
			e.schedule(s)
		}
	}
}

// Dispatch routes one message: index candidates, filter, deliver per each
// matching subscriber's mode. It returns how many subscribers matched.
func (e *Engine) Dispatch(m Message) int {
	e.published.Add(1)
	rec := e.cfg.Obs
	var t0 time.Time
	if rec != nil {
		// Dispatch-level timing is always on (one clock pair per publish);
		// the per-subscriber stage timings below ride only on messages the
		// recorder sampled into a trace, so fan-out hot paths stay flat.
		t0 = rec.Now()
		m.tid = rec.StartTrace(m.Topic.String())
	}
	cands := e.reg.candidates(m.Topic)
	matched := 0
	traced := 0
	var now time.Time
	for _, s := range cands {
		if s.closed.Load() {
			continue
		}
		if dl := s.deadline.Load(); dl != 0 {
			if now.IsZero() {
				now = e.cfg.Clock()
			}
			if !now.Before(time.Unix(0, dl)) {
				continue
			}
		}
		if s.paused.Load() && !s.opts.PauseBuffer {
			continue
		}
		if s.opts.Filter != nil {
			ok, err := s.opts.Filter(m)
			if err != nil || !ok {
				continue
			}
		}
		matched++
		e.matched.Add(1)
		dm := m
		if s.opts.Prepare != nil {
			dm = s.opts.Prepare(m)
			// Prepare hooks build fresh Message values; re-link the trace.
			dm.tid = m.tid
		}
		if m.tid != 0 {
			if traced < obs.MaxTraceEvents {
				traced++
				rec.TraceEvent(m.tid, "match", s.id, 0, nil)
			} else {
				// The trace ring drops everything past MaxTraceEvents, so
				// on huge fan-outs stop threading the id: the remaining
				// subscribers skip per-delivery instrumentation instead of
				// paying for events nobody will see.
				dm.tid = 0
			}
		}
		e.accept(s, dm)
	}
	if rec != nil {
		rec.ObserveStage(obs.StageDispatch, rec.Now().Sub(t0))
	}
	return matched
}

// accept hands one matched message to a subscriber per its mode.
func (e *Engine) accept(s *sub, m Message) {
	rec := e.cfg.Obs
	var t0 time.Time
	if m.tid != 0 {
		// Accept-stage timing only for traced (sampled) messages: the
		// common case pays nothing beyond the tid check. The stage covers
		// routing — lock, mode decision, enqueue — not the inline delivery
		// itself, which deliverBatch times as StageDeliver.
		t0 = rec.Now()
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		e.dropped.Add(1)
		if m.tid != 0 {
			rec.ObserveStage(obs.StageAccept, rec.Now().Sub(t0))
			rec.TraceEvent(m.tid, "drop", s.id, 0, nil)
		}
		return
	}
	// A Sync subscriber with an open (or probing) breaker buffers into its
	// ring instead of delivering inline — and keeps buffering while a
	// flushed backlog is still draining, to preserve FIFO order.
	gatedSync := s.opts.Mode == Sync && s.brk != nil &&
		(s.brk.pausing() || s.q.len() > 0)
	buffering := s.opts.Mode == Pull ||
		(s.paused.Load() && s.opts.PauseBuffer) ||
		s.opts.Mode == Queued || gatedSync
	if !buffering {
		s.mu.Unlock()
		if m.tid != 0 {
			rec.ObserveStage(obs.StageAccept, rec.Now().Sub(t0))
		}
		e.deliverSync(s, m)
		return
	}
	track := s.opts.Mode == Queued && !s.paused.Load()
	stored, evicted := s.q.push(m, s.queueCap(e), s.opts.Overflow)
	dropped := 0
	if !stored || evicted {
		dropped = 1
	}
	if track {
		switch {
		case stored && !evicted:
			s.accounted++
			e.wg.Add(1)
		case evicted && s.accounted < s.q.len():
			// Evicted an untracked (pause-era) message but stored a
			// tracked one: net +1 tracked.
			s.accounted++
			e.wg.Add(1)
		}
	}
	sched := false
	if (track || gatedSync) && stored && !s.scheduled {
		s.scheduled = true
		sched = true
	}
	onDrop := s.opts.OnDrop
	s.mu.Unlock()
	if m.tid != 0 {
		rec.ObserveStage(obs.StageAccept, rec.Now().Sub(t0))
		if stored {
			rec.TraceEvent(m.tid, "enqueue", s.id, 0, nil)
		} else {
			rec.TraceEvent(m.tid, "drop", s.id, 0, nil)
		}
	}
	if dropped > 0 {
		e.dropped.Add(uint64(dropped))
		if onDrop != nil {
			onDrop(dropped)
		}
	}
	if sched {
		e.schedule(s)
	}
}

// deliverSync delivers inline, honouring wrap-mode batching.
func (e *Engine) deliverSync(s *sub, m Message) {
	if s.opts.Batch > 1 {
		s.mu.Lock()
		s.batch = append(s.batch, m)
		var full []Message
		if len(s.batch) >= s.opts.Batch {
			full = s.batch
			s.batch = nil
		}
		s.mu.Unlock()
		if full != nil {
			e.deliverBatch(s, full)
		}
		return
	}
	e.deliverBatch(s, []Message{m})
}

// deliverBatch runs one delivery cycle — the retry loop with per-attempt
// timeouts — then the terminal accounting: success resets the failure
// state; exhaustion dead-letters the batch (or counts it Failed when the
// DLQ is disabled or full under DropNewest) and feeds the subscriber's
// circuit breaker or, absent one, the consecutive-failure eviction
// counter. No engine locks are held across Deliver, so consumers may
// re-enter the engine.
func (e *Engine) deliverBatch(s *sub, batch []Message) {
	if s.closed.Load() {
		e.dropped.Add(uint64(len(batch)))
		return
	}
	if s.opts.Deliver == nil && s.opts.DeliverCtx == nil {
		e.dropped.Add(uint64(len(batch)))
		return
	}
	rec := e.cfg.Obs
	var tid uint64
	var t0 time.Time
	if rec != nil {
		for _, m := range batch {
			if m.tid != 0 {
				tid = m.tid
				break
			}
		}
		if tid != 0 {
			t0 = rec.Now()
		}
	}
	attempts, err := e.attemptCycle(s, batch, tid)
	if tid != 0 {
		// StageDeliver is the subscriber-visible cycle latency: every
		// attempt plus the backoff sleeps between them.
		rec.ObserveStage(obs.StageDeliver, rec.Now().Sub(t0))
	}
	if err == nil {
		e.delivered.Add(uint64(len(batch)))
		if tid != 0 {
			rec.TraceEvent(tid, "delivered", s.id, attempts, nil)
		}
		s.mu.Lock()
		s.failures = 0
		s.mu.Unlock()
		if s.brk != nil {
			if _, closed, _ := s.brk.record(true, e.cfg.Clock()); closed {
				rec.BreakerTransition("closed")
			}
		}
		return
	}
	stored := 0
	if e.dlq != nil && !s.closed.Load() {
		at := e.cfg.Clock()
		for _, m := range batch {
			if e.cfg.DLQFetch != nil && m.Pos != 0 {
				// The event log already holds the payload; keep only the
				// coordinates needed to re-read it at replay.
				m.Payload = nil
			}
			if e.dlq.push(DeadLetter{SubID: s.id, Msg: m, Attempts: attempts, Reason: err.Error(), At: at}) {
				stored++
			}
		}
	}
	e.deadLettered.Add(uint64(stored))
	e.failed.Add(uint64(len(batch) - stored))
	if tid != 0 {
		if stored > 0 {
			rec.TraceEvent(tid, "deadletter", s.id, attempts, err)
		} else {
			rec.TraceEvent(tid, "failed", s.id, attempts, err)
		}
	}
	if s.brk != nil {
		opened, _, evict := s.brk.record(false, e.cfg.Clock())
		if opened {
			e.breakerTrips.Add(1)
			rec.BreakerTransition("open")
		}
		if evict {
			e.evict(s)
		} else if opened {
			e.armBreakerTimer(s)
		}
		return
	}
	limit := s.opts.FailureLimit
	if limit == 0 {
		limit = e.cfg.FailureLimit
	}
	if limit <= 0 {
		return
	}
	s.mu.Lock()
	s.failures++
	doEvict := s.failures >= limit
	s.mu.Unlock()
	if doEvict {
		e.evict(s)
	}
}

// evict removes a subscription terminally (at most once), firing OnEvict.
func (e *Engine) evict(s *sub) {
	s.mu.Lock()
	already := s.evicted
	s.evicted = true
	s.mu.Unlock()
	if already {
		return
	}
	e.Unsubscribe(s.id)
	if s.opts.OnEvict != nil {
		s.opts.OnEvict(s.id)
	}
}

// armBreakerTimer schedules a re-dispatch of the subscriber's buffered
// backlog for when its open breaker becomes probeable. At most one timer
// is pending per subscriber.
func (e *Engine) armBreakerTimer(s *sub) {
	at := s.brk.retryAt()
	if at.IsZero() {
		return
	}
	s.mu.Lock()
	if s.timerArmed || s.closed.Load() || s.q.len() == 0 {
		s.mu.Unlock()
		return
	}
	s.timerArmed = true
	s.mu.Unlock()
	d := at.Sub(e.cfg.Clock())
	if d < 0 {
		d = 0
	}
	e.cfg.After(d, func() {
		s.mu.Lock()
		s.timerArmed = false
		sched := !s.scheduled && s.q.len() > 0 && !s.closed.Load()
		if sched {
			s.scheduled = true
		}
		s.mu.Unlock()
		if sched {
			e.schedule(s)
		}
	})
}

// FlushBatch delivers a subscriber's partially filled Sync batch.
func (e *Engine) FlushBatch(id string) {
	if s := e.reg.lookup(id); s != nil {
		e.flushBatch(s)
	}
}

// FlushBatches delivers every subscriber's partially filled Sync batch, in
// registration order.
func (e *Engine) FlushBatches() {
	e.reg.forEach(func(s *sub) {
		if s.opts.Batch > 1 {
			e.flushBatch(s)
		}
	})
}

func (e *Engine) flushBatch(s *sub) {
	s.mu.Lock()
	batch := s.batch
	s.batch = nil
	s.mu.Unlock()
	if len(batch) > 0 {
		e.deliverBatch(s, batch)
	}
}

// Quiesce blocks until every queued delivery has been attempted. Callers
// must not dispatch concurrently.
func (e *Engine) Quiesce() { e.wg.Wait() }

// QueueLen reports a subscriber's buffered message count.
func (e *Engine) QueueLen(id string) int {
	s := e.reg.lookup(id)
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.len()
}

// Pull removes and returns up to max buffered messages (all of them when
// max <= 0) from a Pull subscriber, oldest first.
func (e *Engine) Pull(id string, max int) ([]Message, error) {
	return e.PullEdit(id, func(msgs []Message) []PullDecision {
		n := len(msgs)
		if max > 0 && max < n {
			n = max
		}
		ds := make([]PullDecision, len(msgs))
		for i := 0; i < n; i++ {
			ds[i] = Take
		}
		return ds
	})
}

// PullEdit lets the spec layer apply its own pull policy (priority order,
// per-event expiry) atomically: fn sees the buffered messages in FIFO
// order and returns a per-message decision. Taken messages return in queue
// order and count as delivered; discarded ones count as dropped. fn runs
// under the subscriber's lock and must not re-enter the engine. Non-Pull
// subscribers yield no messages.
func (e *Engine) PullEdit(id string, fn func([]Message) []PullDecision) ([]Message, error) {
	s := e.reg.lookup(id)
	if s == nil {
		return nil, ErrUnknownSub
	}
	if s.opts.Mode != Pull {
		return nil, nil
	}
	s.mu.Lock()
	msgs := s.q.snapshot()
	ds := fn(msgs)
	var taken, kept []Message
	discarded := 0
	for i, m := range msgs {
		d := Keep
		if i < len(ds) {
			d = ds[i]
		}
		switch d {
		case Take:
			taken = append(taken, m)
		case Discard:
			discarded++
		default:
			kept = append(kept, m)
		}
	}
	if len(taken) > 0 || discarded > 0 {
		s.q.replace(kept)
	}
	s.mu.Unlock()
	if discarded > 0 {
		e.dropped.Add(uint64(discarded))
	}
	if len(taken) > 0 {
		e.delivered.Add(uint64(len(taken)))
	}
	return taken, nil
}

// Candidates returns the ids the topic index cannot rule out for a
// message on topic, in registration order — introspection for tests and
// monitoring.
func (e *Engine) Candidates(topic topics.Path) []string {
	cands := e.reg.candidates(topic)
	out := make([]string, len(cands))
	for i, s := range cands {
		out[i] = s.id
	}
	return out
}

// Close stops the worker pool once its run queue drains. In-flight
// deliveries finish; subsequent Queued messages would wait forever, so
// unsubscribe (or Quiesce) before closing.
func (e *Engine) Close() {
	e.runMu.Lock()
	e.closing = true
	e.runMu.Unlock()
}

// WorkerCount reports the live dispatch worker goroutines — the
// wsm_dispatch_workers gauge. It is 0 whenever nothing is scheduled.
func (e *Engine) WorkerCount() int {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	return e.workers
}

// schedule queues a runnable subscriber and, while the pool is below
// MaxWorkers, starts a worker for it. This is the engine's one scheduling
// rule, the same one the per-subscriber scheduled flag follows: whoever
// makes work runnable starts the drainer, and the drainer exits when its
// queue is empty.
func (e *Engine) schedule(s *sub) {
	e.runMu.Lock()
	e.runQ = append(e.runQ, s)
	if e.workers < e.cfg.MaxWorkers && !e.closing {
		e.workers++
		go e.worker()
	}
	e.runMu.Unlock()
}

// worker drains scheduled subscribers until the run queue is empty. A
// subscriber is on the run queue at most once (the scheduled flag), and
// only the worker holding it pops its ring, so per-subscriber order is
// preserved without per-subscriber goroutines.
func (e *Engine) worker() {
	for {
		e.runMu.Lock()
		if len(e.runQ) == 0 {
			e.workers--
			e.runMu.Unlock()
			return
		}
		s := e.runQ[0]
		e.runQ[0] = nil
		e.runQ = e.runQ[1:]
		e.runMu.Unlock()
		e.drain(s)
	}
}

func (e *Engine) drain(s *sub) {
	for {
		s.mu.Lock()
		if s.paused.Load() && s.opts.PauseBuffer {
			// Paused mid-drain: leave the backlog for Resume.
			s.scheduled = false
			s.mu.Unlock()
			return
		}
		if s.q.len() == 0 {
			s.scheduled = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		// Ask the breaker before popping — and only when there is work,
		// so a half-open probe grant is never consumed without a probe.
		// An open breaker leaves the backlog buffered and re-arms the
		// cool-down timer.
		if s.brk != nil {
			ok, probe := s.brk.allow(e.cfg.Clock())
			if probe {
				e.cfg.Obs.BreakerTransition("half-open")
			}
			if !ok {
				s.mu.Lock()
				s.scheduled = false
				s.mu.Unlock()
				e.armBreakerTimer(s)
				return
			}
		}
		s.mu.Lock()
		if s.opts.Batch > 1 {
			// Batch subscribers flush wrap-mode batches directly from the
			// backlog: a queued subscriber with Batch > 1 hands up to Batch
			// messages per delivery cycle (the per-destination writer
			// coalesces them into one envelope), and a breaker's half-open
			// probe must produce a recordable outcome, which a message
			// parked in the deliverSync batch accumulator would not. Short
			// batches flush partial, like FlushBatch.
			n := s.opts.Batch
			if l := s.q.len(); l < n {
				n = l
			}
			batch := make([]Message, 0, n)
			tracked := 0
			for i := 0; i < n; i++ {
				m, ok := s.q.pop()
				if !ok {
					break
				}
				if s.accounted > 0 {
					s.accounted--
					tracked++
				}
				batch = append(batch, m)
			}
			s.mu.Unlock()
			if len(batch) > 0 {
				e.deliverBatch(s, batch)
			}
			for i := 0; i < tracked; i++ {
				e.wg.Done()
			}
			continue
		}
		m, ok := s.q.pop()
		if !ok {
			s.scheduled = false
			s.mu.Unlock()
			return
		}
		tracked := s.accounted > 0
		if tracked {
			s.accounted--
		}
		s.mu.Unlock()
		e.deliverSync(s, m)
		if tracked {
			e.wg.Done()
		}
	}
}
