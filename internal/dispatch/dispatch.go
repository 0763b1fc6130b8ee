// Package dispatch is the shared fan-out engine behind every notification
// stack in this repository: the WS-Messenger broker (internal/core), the
// standalone WS-Eventing, WS-Notification and WS-EventNotification
// endpoints, the CORBA channels, the JMS topics and the OGSI sources.
//
// The paper's observation that one broker can serve every specification
// family at once (§VII) holds because the registry/fan-out machinery under
// each spec is the same shape: a set of subscribers, a per-subscriber
// filter, and a delivery policy (inline push, queued push, batch, or a
// buffered pull queue). Before this package each stack re-implemented that
// machinery behind a single mutex with an O(all-subscribers) scan per
// event; "Experiences with advanced CORBA services" documents exactly that
// design becoming the bottleneck of production Notification deployments.
//
// This package provides:
//
//   - a lock-striped, sharded subscriber registry (shard count derived
//     from GOMAXPROCS by default) so subscribe/unsubscribe churn does not
//     serialise against fan-out;
//   - a topic index — exact and prefix buckets plus a residual list for
//     wildcard/full-filter subscribers — so a dispatch evaluates filters
//     only on candidate subscribers instead of every live subscription.
//     The index is superset-safe: it may yield candidates the full filter
//     rejects, never the reverse;
//   - a unified delivery engine: inline (Sync) delivery with optional
//     wrap-mode batching, per-subscriber bounded ring queues drained by a
//     shared worker pool (Queued), and broker-side pull buffers (Pull),
//     all with pluggable overflow policy, pause/resume (skip or buffer),
//     consecutive-failure eviction and atomic counters.
//
// The spec layers keep only their spec-specific rendering: mediation and
// SOAP for core, ETCL filters and QoS vocabulary for corbanotify, SQL-92
// selectors for jms, service data elements for ogsi.
package dispatch

import (
	"context"
	"errors"
	"time"

	"repro/internal/topics"
)

// ErrUnknownSub is returned by per-subscriber operations on an id that is
// not (or no longer) registered.
var ErrUnknownSub = errors.New("dispatch: unknown subscriber")

// ErrDuplicateSub is returned by Subscribe when the id is already taken.
var ErrDuplicateSub = errors.New("dispatch: duplicate subscriber id")

// Message is one event travelling through the engine: an optional topic
// (zero when the producer has no topic concept) and an opaque payload the
// owning spec layer understands.
type Message struct {
	Topic   topics.Path
	Payload any

	// Pos is the message's position in the broker's durable event log
	// (0 = unlogged). The engine treats it as opaque metadata except in
	// one place: a dead letter for a positioned message may drop its
	// payload and re-read it from the log at replay (Config.DLQFetch).
	Pos uint64

	// tid links the message to its lifecycle trace when the observability
	// recorder sampled it at publish (0 = untraced). The engine restores it
	// across Prepare hooks, which build fresh Message values.
	tid uint64
}

// Mode selects a subscriber's delivery path.
type Mode int

const (
	// Sync delivers inline on the dispatching goroutine (optionally in
	// batches of Sub.Batch messages — the broker's WSE wrapped mode and
	// CORBA sequence-push batching).
	Sync Mode = iota
	// Queued buffers into a per-subscriber ring drained by the engine's
	// shared worker pool, preserving per-subscriber order.
	Queued
	// Pull buffers at the engine until the subscriber calls Pull/PullEdit.
	Pull
)

// Overflow selects what a full bounded queue does with a new message.
type Overflow int

const (
	// DropNewest rejects the incoming message (the broker's async-queue
	// policy, CORBA LifoDiscard).
	DropNewest Overflow = iota
	// DropOldest evicts the head of the ring to make room (the broker's
	// pull-queue policy, CORBA FifoDiscard, JMS durable buffers).
	DropOldest
)

// PullDecision is the per-message verdict a PullEdit callback returns.
type PullDecision int

const (
	// Keep leaves the message queued.
	Keep PullDecision = iota
	// Take removes the message and returns it to the caller (counted as
	// delivered).
	Take
	// Discard removes the message without returning it (counted as
	// dropped; per-event expiry in the CORBA Notification Service).
	Discard
)

// Stats is a snapshot of the engine's monotonic counters. The conservation
// law: at quiescence, with no unsubscribed-mid-flight messages and no
// partial batches,
//
//	Matched == Delivered + Dropped + Failed + DeadLettered
//
// — every matched message reaches exactly one terminal counter (a replayed
// dead letter counts as a fresh match, so replay preserves the law).
// Retries and BreakerTrips are observability counters outside the law.
type Stats struct {
	// Published counts Dispatch calls.
	Published uint64
	// Matched counts (message, subscriber) pairs that passed the filter,
	// plus requeued dead letters.
	Matched uint64
	// Delivered counts messages handed over successfully (per message,
	// also inside batches; pull messages count when pulled), possibly
	// after retries.
	Delivered uint64
	// Dropped counts overflow, eviction and PullEdit discards.
	Dropped uint64
	// Failed counts messages whose delivery cycle terminally failed
	// without being captured in the dead-letter queue (DLQ disabled, or
	// full under DropNewest overflow).
	Failed uint64
	// DeadLettered counts messages captured in the DLQ after exhausting
	// their retries.
	DeadLettered uint64
	// Retries counts failed attempts that were retried (per attempt, not
	// per message).
	Retries uint64
	// BreakerTrips counts closed→open and half-open→open transitions
	// across all subscriptions.
	BreakerTrips uint64
}

// Sub describes one subscriber at registration time.
type Sub struct {
	// ID is the unique subscriber identity.
	ID string
	// Selector places the subscriber in the topic index. MatchAll (the
	// zero value) puts it on the residual list, consulted for every
	// message.
	Selector Selector
	// Filter is the full acceptance predicate, evaluated on index
	// candidates. Nil accepts every candidate message. An error counts
	// as a mismatch.
	Filter func(Message) (bool, error)
	// Prepare runs on the dispatching goroutine for each matched message
	// before it is queued or delivered — the per-subscriber clone/annotate
	// hook (CORBA event cloning, JMS message cloning, attach-time stamps).
	Prepare func(Message) Message
	// Mode selects the delivery path.
	Mode Mode
	// Deliver hands a batch (length 1 unless Batch > 1) to the consumer.
	// Required for Sync and Queued modes (unless DeliverCtx is set). It
	// is never called with internal locks held.
	Deliver func(batch []Message) error
	// DeliverCtx is the context-aware delivery hook, preferred over
	// Deliver when both are set. The context carries the retry policy's
	// per-attempt timeout; transports should honour its cancellation so a
	// hung consumer cannot pin a delivery goroutine.
	DeliverCtx func(ctx context.Context, batch []Message) error
	// Retry configures delivery retries with backoff for this
	// subscription (nil inherits the engine default; the zero policy
	// means a single attempt, no retry).
	Retry *RetryPolicy
	// Breaker attaches a circuit breaker: instead of eviction after
	// FailureLimit consecutive failures, delivery pauses (messages keep
	// buffering) when the failure rate trips the breaker, resumes via
	// half-open probes, and evicts only after BreakerPolicy.MaxTrips.
	// Nil inherits the engine default.
	Breaker *BreakerPolicy
	// Batch > 1 accumulates Sync deliveries into batches of this size
	// (flush partials with FlushBatch/FlushBatches).
	Batch int
	// QueueCap bounds the Queued ring, the Pull buffer and the pause
	// buffer. Zero means the engine default for Queued mode and
	// unbounded for Pull buffers and pause buffers.
	QueueCap int
	// Overflow selects the bounded-queue overflow policy.
	Overflow Overflow
	// OnDrop is called (without locks held) with the number of messages
	// dropped by queue overflow — not by PullEdit discards or eviction.
	OnDrop func(n int)
	// FailureLimit evicts the subscriber after this many consecutive
	// Deliver failures. Zero inherits the engine default; negative
	// disables eviction.
	FailureLimit int
	// OnEvict is called (without locks held) after a failure eviction.
	OnEvict func(id string)
	// PauseBuffer selects pause semantics: true buffers matched messages
	// while paused and flushes them on Resume (CORBA SuspendConnection,
	// JMS durable deactivation); false skips paused subscribers entirely
	// (WS-Notification PauseSubscription).
	PauseBuffer bool
	// Paused registers the subscriber already paused (snapshot restore).
	Paused bool
	// Deadline, when non-zero, stops delivery once the engine clock
	// reaches it — soft-state expiry without a registry scan. Update it
	// with Engine.SetDeadline on renewal.
	Deadline time.Time
}
