// Package core implements WS-Messenger, the paper's contribution (§VII):
// a message broker that supports WS-Eventing and WS-Notification
// simultaneously and mediates between them.
//
// One front door accepts subscribe requests and published notifications in
// either specification (at any of the four versions this repository
// implements). The broker auto-detects the specification of each incoming
// SOAP message, answers in the same specification, and — the crux — when
// delivering, renders every notification in the specification *the
// subscriber used to subscribe*, so "an event producer can publish event
// notifications using either the WS-Eventing specification or the
// WS-Notification specification [and] it makes no difference to the event
// consumers" (§VII).
//
// Accepted notifications flow through a pluggable backend
// (repro/internal/backend), so existing publish/subscribe systems can be
// wrapped behind the WS front doors. Fan-out and delivery run through the
// shared dispatch engine (repro/internal/dispatch): a sharded subscriber
// registry with a topic index, per-subscriber bounded queues drained by a
// shared worker pool, and broker-side pull buffers — keeping one slow
// consumer from stalling the rest. This layer keeps only what is
// broker-specific: the front doors, the lease store, and one delivery path
// (delivery.go) — a single render step that mediates each notification
// into the subscriber's dialect and a single wire step that carries it
// out, whichever door the subscriber came in by.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/destwriter"
	"repro/internal/dispatch"
	"repro/internal/eventlog"
	"repro/internal/filter"
	"repro/internal/mediation"
	"repro/internal/obs"
	"repro/internal/soap"
	"repro/internal/sublease"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/wsrf"
	"repro/internal/xmldom"
)

// Config configures a WS-Messenger broker.
type Config struct {
	// Address is the broker front door (subscribes, publishes and, unless
	// ManagerAddress is set, subscription management).
	Address string
	// ManagerAddress optionally separates subscription management.
	ManagerAddress string
	// Client delivers notifications and end notices.
	Client transport.Client
	// Clock is injectable for tests.
	Clock func() time.Time
	// Backend is the underlying pub/sub fabric; in-memory when nil.
	Backend backend.Backend
	// DefaultExpiry / MaxExpiry govern granted subscription lifetimes.
	DefaultExpiry time.Duration
	MaxExpiry     time.Duration
	// SyncDelivery delivers inline on the publisher's call instead of
	// through per-subscriber queues — deterministic for tests, and the
	// baseline arm of the delivery-pipeline ablation bench.
	SyncDelivery bool
	// DisableRenderCache turns off the per-publish render-template cache,
	// so every delivery renders and serialises its envelope from scratch.
	// The raw-bytes transport path and pooled buffers stay active, so this
	// isolates exactly the template cache — the ablation arm of the
	// render-once fan-out bench.
	DisableRenderCache bool
	// QueueDepth bounds each subscriber's delivery queue (default 256);
	// overflow drops the newest message and counts it.
	QueueDepth int
	// BatchMax enables per-destination delivery batching when > 1: queued
	// subscribers hand up to BatchMax messages per delivery cycle to a
	// per-destination writer pool (one bounded queue per destination
	// host, drained on demand), which coalesces frame-equal WSN 1.3 wrapped
	// deliveries into one multi-NotificationMessage envelope per round
	// trip. Requires a Client with a raw-bytes path (transport.BytesClient)
	// — without one the knob is ignored. Zero disables (the default).
	BatchMax int
	// BatchWindow is how long a destination's round stays open after its
	// first batch for more to coalesce (zero = purely opportunistic).
	BatchWindow time.Duration
	// MaxInflightPerHost caps concurrent in-flight sends per destination
	// host: 1 (or zero, the default) sends one round at a time, higher
	// values pipeline flush rounds through up to that many concurrent
	// flights. Clamped to MaxConnsPerHost.
	MaxInflightPerHost int
	// AdaptiveWindow governs the per-host in-flight window with an AIMD
	// controller inside [1, MaxInflightPerHost] instead of pinning it at
	// the maximum: additive increase on sustained success, halve on a
	// send failure.
	AdaptiveWindow bool
	// MaxConnsPerHost is the pooled transport's per-host connection
	// budget (default transport.DefaultMaxConnsPerHost). The destination
	// writers never hold more in-flight sends to one host than this, so
	// connection accounting stays exact.
	MaxConnsPerHost int
	// MaxDispatchWorkers caps the dispatch engine's drain-on-demand
	// delivery worker pool (default: the engine's own cap, 8×GOMAXPROCS
	// and at least 32). Delivery workers spend their lives blocked on the
	// wire, not the CPU, so deployments fanning out to many slow
	// destinations raise this well past core count to keep every
	// destination's in-flight window fed.
	MaxDispatchWorkers int
	// PullQueueCap bounds WSE pull queues (default 1024).
	PullQueueCap int
	// WrapBatchSize is the WSE wrapped-mode batch size (default 10).
	WrapBatchSize int
	// FailureLimit drops a subscriber after this many consecutive
	// delivery failures (default 3). Ignored for subscriptions governed
	// by a circuit Breaker, which pauses instead and evicts only after
	// BreakerPolicy.MaxTrips.
	FailureLimit int
	// Retry is the per-subscription delivery retry policy (nil = one
	// attempt, no retry). The policy's per-attempt Timeout rides the
	// delivery context into the transport client.
	Retry *dispatch.RetryPolicy
	// Breaker attaches a circuit breaker to every subscription: failing
	// consumers are paused (their messages keep buffering) and probed
	// after a cool-down instead of being evicted outright.
	Breaker *dispatch.BreakerPolicy
	// DeadLetterCap bounds the broker's dead-letter queue, which captures
	// notifications that exhaust their retries so operators can inspect
	// and replay them (default 1024; negative disables — terminal
	// failures are then counted and discarded, the pre-DLQ behaviour).
	DeadLetterCap int
	// DataDir enables the durable append-only event log: every accepted
	// publish is assigned a monotone LogPos and written (per Durability)
	// before the publish is acknowledged, and catch-up consumers — pull
	// points, DLQ replay, recovering federation peers — re-sync from it by
	// cursor. Empty keeps the pre-log behaviour unless Durability is set,
	// which opens a memory-only log (cursors without persistence).
	DataDir string
	// Durability selects the log's fsync policy: "batch"/"fsync" (group
	// commit — Append returns only after fsync; the default when DataDir
	// is set), "async" (background flush every LogFlushInterval-ish tick)
	// or "off" (OS page cache only).
	Durability string
	// LogSegmentBytes / LogRetainSegments tune log rotation and
	// retention-based compaction (defaults 4 MiB / 8 sealed segments).
	LogSegmentBytes   int64
	LogRetainSegments int
	// BrokerID is the broker's federation identity. When set, every locally
	// published notification is stamped with a wsmf:Relay header naming this
	// broker as its origin, so peer brokers can suppress loops and dedup.
	// Empty disables relay stamping — the single-broker deployments every
	// prior layer was built for pay nothing.
	BrokerID string
	// Obs instruments the broker: lifecycle counters and gauges are bound
	// to the dispatch engine, per-stage latency histograms and sampled
	// message traces ride the delivery path, and the broker adds
	// per-operation and mediation-render timings. One recorder serves one
	// broker (the engine binding panics on reuse); nil disables
	// instrumentation at the cost of a nil check.
	Obs *obs.Recorder
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ManagerAddress == "" {
		out.ManagerAddress = out.Address
	}
	if out.Clock == nil {
		out.Clock = time.Now
	}
	if out.Backend == nil {
		out.Backend = backend.NewMemory()
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 256
	}
	if out.PullQueueCap <= 0 {
		out.PullQueueCap = 1024
	}
	if out.WrapBatchSize <= 0 {
		out.WrapBatchSize = 10
	}
	if out.FailureLimit <= 0 {
		out.FailureLimit = 3
	}
	if out.DeadLetterCap == 0 {
		out.DeadLetterCap = 1024
	}
	if out.DeadLetterCap < 0 {
		out.DeadLetterCap = 0
	}
	return out
}

// Stats are the broker's monotonic counters.
type Stats struct {
	Published    uint64 // notifications accepted from publishers
	Delivered    uint64 // notifications handed to the transport successfully
	Dropped      uint64 // queue-overflow drops
	Failures     uint64 // notifications whose delivery terminally failed (dead-lettered or not)
	DeadLettered uint64 // terminally failed notifications captured for replay
	Mediations   uint64 // deliveries whose outgoing spec differed from the incoming one
}

// subState is the broker-side record of one subscription: the canonical
// subscribe, its compiled filter and the delivery plan. Queues, failure
// counts and pull buffers live in the dispatch engine.
type subState struct {
	canon *mediation.Subscribe
	flt   filter.All
	plan  mediation.DeliveryPlan
	// session, when set, delivers the un-rendered notification in-process
	// instead of over a transport: the /ws and MQTT doors' subscriptions,
	// bound to a connection or session that does its own wire framing.
	// Session subscriptions are never persisted.
	session func(ctx context.Context, n mediation.Notification) error
	// persistent marks a persistent MQTT session's subscription: paused, it
	// queues while the client is offline (the WS-Notification default skips
	// paused subscribers), and the session deadline, not the consecutive-
	// failure cap, decides eviction.
	persistent bool
}

// accepts runs the subscription's full filter chain over one message. The
// broker publishes no producer-properties document, so a
// ProducerProperties filter sees none.
func (b *Broker) accepts(st *subState, m dispatch.Message) (bool, error) {
	return st.flt.Accepts(filter.Message{Topic: m.Topic, Payload: m.Payload.(fanMsg).payload, ProducerProperties: nil})
}

// Broker is the WS-Messenger broker.
type Broker struct {
	cfg    Config
	store  *sublease.Store
	engine *dispatch.Engine

	mu      sync.Mutex
	current map[string]*xmldom.Element // last message per topic
	space   *topics.Space              // topics observed, advertised as a TopicSet

	msgID      atomic.Uint64
	published  atomic.Uint64
	mediations atomic.Uint64

	cancelBackend func()
	wsrfSvc       *wsrf.Service

	// log is the durable event log (nil when the broker runs without one).
	log *eventlog.Log

	// rawClient is Config.Client's raw-bytes send path, when it has one.
	// Non-nil enables pooled serialisation buffers and (unless disabled)
	// the render-template cache.
	rawClient transport.BytesClient

	// ceClient is Config.Client's raw HTTP path for non-SOAP bodies, when
	// it has one. Nil means the broker cannot deliver CloudEvents over
	// HTTP and /ce rejects subscription requests up front.
	ceClient transport.RawSender

	// wsConns tracks live WebSocket front-door connections.
	wsConns atomic.Int64

	// CloudEvents / WebSocket front-door counters (nil without Obs).
	cePublished    *obs.Counter
	ceDeliveries   *obs.Counter
	ceErrors       *obs.Counter
	wsConnsTotal   *obs.Counter
	wsEvents       *obs.Counter
	wsPingTimeouts *obs.Counter

	// mqtt is the MQTT front door's session registry (nil until ServeMQTT
	// first runs; counters are nil without Obs).
	mqtt             *mqttFront
	mqttConns        atomic.Int64
	mqttConnsTotal   *obs.Counter
	mqttPublished    *obs.Counter
	mqttDeliveries   *obs.Counter
	mqttDropped      *obs.Counter
	mqttDupDrops     *obs.Counter
	mqttKeepaliveTOs *obs.Counter

	// dest is the per-destination writer pool (nil unless Config.BatchMax
	// > 1 and the client has a raw-bytes path): queued deliveries are
	// grouped by destination host and coalesced into multi-message
	// envelopes where the subscriber's dialect allows.
	dest *destwriter.Pool
	// destBatchSize observes entries per wire send (nil without Obs).
	destBatchSize *obs.SizeHistogram

	// renderSec times mediation rendering (nil when Config.Obs is nil).
	renderSec *obs.Histogram
	// cacheHits/cacheMisses count fan-out deliveries served by stamping a
	// cached template vs. requiring a render (nil when Config.Obs is nil).
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
}

// New builds a broker and wires it to its backend.
func New(cfg Config) (*Broker, error) {
	b := &Broker{cfg: cfg.withDefaults(), current: map[string]*xmldom.Element{}, space: topics.NewSpace()}
	b.mqtt = newMQTTFront(b)
	if err := b.openLog(); err != nil {
		return nil, err
	}
	var dlqFetch func(uint64) (dispatch.Message, bool)
	if b.log != nil {
		dlqFetch = b.fetchLogged
	}
	b.engine = dispatch.New(dispatch.Config{
		QueueCap:     b.cfg.QueueDepth,
		MaxWorkers:   b.cfg.MaxDispatchWorkers,
		FailureLimit: b.cfg.FailureLimit,
		Clock:        b.cfg.Clock,
		Retry:        b.cfg.Retry,
		Breaker:      b.cfg.Breaker,
		DLQCap:       b.cfg.DeadLetterCap,
		DLQOverflow:  dispatch.DropOldest, // keep the newest failure evidence
		DLQFetch:     dlqFetch,
		Obs:          b.cfg.Obs,
	})
	b.store = sublease.NewStore(
		sublease.WithClock(b.cfg.Clock),
		sublease.WithIDPrefix("wsm"),
		sublease.WithEndObserver(b.onLeaseEnd),
	)
	b.rawClient, _ = b.cfg.Client.(transport.BytesClient)
	b.ceClient, _ = b.cfg.Client.(transport.RawSender)
	if rec := b.cfg.Obs; rec != nil {
		reg := rec.Registry()
		comp := obs.L("component", rec.Component())
		b.renderSec = reg.Histogram("wsm_mediation_render_seconds",
			"Time spent rendering notifications into the subscriber's spec.", nil, comp)
		b.cacheHits = reg.Counter("wsm_render_cache_hits_total",
			"Fan-out deliveries served by stamping a cached render template.", comp)
		b.cacheMisses = reg.Counter("wsm_render_cache_misses_total",
			"Fan-out deliveries that needed a fresh mediation render: first delivery per render key, uncacheable subscriber EPRs, and splice fallbacks.", comp)
		b.cePublished = reg.Counter("wsm_ce_published_total",
			"CloudEvents accepted through the /ce and /ws front doors.", comp)
		b.ceDeliveries = reg.Counter("wsm_ce_deliveries_total",
			"CloudEvents wire deliveries (one batched send may carry many events).", comp)
		b.ceErrors = reg.Counter("wsm_ce_errors_total",
			"CloudEvents wire deliveries that failed.", comp)
		reg.GaugeFunc("wsm_ce_subscriptions",
			"Live CloudEvents HTTP subscriptions (WebSocket- and MQTT-bound ones excluded).",
			b.countSubs(func(st *subState) bool {
				return st.canon.Origin.Family == mediation.FamilyCE && st.session == nil
			}), comp)
		reg.GaugeFunc("wsm_ws_connections",
			"Live WebSocket front-door connections.",
			func() float64 { return float64(b.wsConns.Load()) }, comp)
		b.wsConnsTotal = reg.Counter("wsm_ws_connections_total",
			"WebSocket front-door connections ever accepted.", comp)
		b.wsEvents = reg.Counter("wsm_ws_events_total",
			"Frames pushed to WebSocket consumers (events and session replies).", comp)
		b.wsPingTimeouts = reg.Counter("wsm_ws_ping_timeouts_total",
			"WebSocket connections declared dead after unanswered pings.", comp)
		reg.GaugeFunc("wsm_mqtt_connections",
			"Live MQTT front-door connections.",
			func() float64 { return float64(b.mqttConns.Load()) }, comp)
		reg.GaugeFunc("wsm_mqtt_subscriptions",
			"Live MQTT session-bound subscriptions (all QoS levels).",
			b.countSubs(func(st *subState) bool {
				return st.canon.Consumer.Address == mqttConsumerURN
			}), comp)
		b.mqttConnsTotal = reg.Counter("wsm_mqtt_connections_total",
			"MQTT front-door connections ever accepted.", comp)
		b.mqttPublished = reg.Counter("wsm_mqtt_published_total",
			"Application messages accepted from MQTT publishers (after QoS 2 dedup).", comp)
		b.mqttDeliveries = reg.Counter("wsm_mqtt_deliveries_total",
			"PUBLISH frames written to MQTT consumers (QoS 1/2 retransmits included).", comp)
		b.mqttDropped = reg.Counter("wsm_mqtt_dropped_total",
			"QoS 0 deliveries dropped at the session edge (slow or dead consumer).", comp)
		b.mqttDupDrops = reg.Counter("wsm_mqtt_dup_drops_total",
			"Inbound QoS 2 PUBLISH duplicates suppressed by the exactly-once dedup set.", comp)
		b.mqttKeepaliveTOs = reg.Counter("wsm_mqtt_keepalive_timeouts_total",
			"MQTT connections closed after missing 1.5x the keep-alive interval.", comp)
	}
	if b.cfg.BatchMax > 1 && b.rawClient != nil {
		connCap := b.cfg.MaxConnsPerHost
		if connCap <= 0 {
			connCap = transport.DefaultMaxConnsPerHost
		}
		b.dest = destwriter.NewPool(destwriter.Config{
			Send: func(ctx context.Context, addr, contentType string, body []byte) error {
				return b.post(ctx, addr, contentType, nil, body)
			},
			NextMessageID:      b.nextMessageID,
			BatchMax:           b.cfg.BatchMax,
			BatchWindow:        b.cfg.BatchWindow,
			MaxInflightPerHost: b.cfg.MaxInflightPerHost,
			AdaptiveWindow:     b.cfg.AdaptiveWindow,
			ConnCap:            connCap,
			OnBatchSize: func(n int) {
				if b.destBatchSize != nil {
					b.destBatchSize.Observe(uint64(n))
				}
			},
		})
		if rec := b.cfg.Obs; rec != nil {
			reg := rec.Registry()
			comp := obs.L("component", rec.Component())
			b.destBatchSize = reg.SizeHistogram("wsm_dest_batch_size",
				"Subscriber deliveries carried per wire send (1 = no coalescing).",
				nil, comp)
			reg.GaugeFunc("wsm_dest_active_writers",
				"Destination hosts the writer pool holds state for (hosts with work, plus quiet ones not yet swept).",
				func() float64 { return float64(b.dest.ActiveWriters()) }, comp)
			reg.GaugeFunc("wsm_dest_queue_depth",
				"Batches queued across all destination writers, not yet flushed.",
				func() float64 { return float64(b.dest.QueueDepth()) }, comp)
			reg.GaugeFunc("wsm_dest_coalesce_ratio",
				"Mean subscriber deliveries per wire send since start (0 before the first send).",
				b.dest.CoalesceRatio, comp)
			reg.CounterFunc("wsm_dest_envelopes_total",
				"Coalesced multi-NotificationMessage envelopes put on the wire.",
				b.dest.Envelopes, comp)
			reg.CounterFunc("wsm_dest_entries_total",
				"Subscriber deliveries carried inside coalesced envelopes.",
				b.dest.CoalescedEntries, comp)
			reg.CounterFunc("wsm_dest_raw_sends_total",
				"Envelopes sent individually because their dialect cannot coalesce.",
				b.dest.RawSends, comp)
			reg.CounterFunc("wsm_dest_canceled_total",
				"Batches suppressed because their subscription ended before the flush.",
				b.dest.Canceled, comp)
			reg.CounterFunc("wsm_dest_send_errors_total",
				"Destination writer wire sends that failed.",
				b.dest.SendErrors, comp)
			reg.GaugeFunc("wsm_dest_inflight",
				"Pipelined sends currently in flight across destination hosts.",
				func() float64 { return float64(b.dest.Inflight()) }, comp)
			reg.GaugeFunc("wsm_dest_window",
				"Widest current per-host in-flight window (0 before the first delivery).",
				func() float64 { return float64(b.dest.Window()) }, comp)
			reg.CounterFunc("wsm_dest_window_decreases_total",
				"AIMD multiplicative decreases of a per-host in-flight window.",
				b.dest.WindowDecreases, comp)
		}
	}
	b.wsrfSvc = &wsrf.Service{
		Provider:    brokerResources{b},
		Clock:       b.cfg.Clock,
		IDExtractor: b.subscriptionID,
	}
	cancel, err := b.cfg.Backend.Subscribe(b.fanOut)
	if err != nil {
		_ = b.CloseLog()
		return nil, fmt.Errorf("core: backend subscribe: %w", err)
	}
	b.cancelBackend = cancel
	return b, nil
}

// countSubs is a scrape-time gauge over the live subscriptions whose
// record satisfies pred.
func (b *Broker) countSubs(pred func(*subState) bool) func() float64 {
	return func() float64 {
		n := 0
		for _, sn := range b.store.Active() {
			if st, ok := sn.Data.(*subState); ok && pred(st) {
				n++
			}
		}
		return float64(n)
	}
}

// Address returns the front-door address.
func (b *Broker) Address() string { return b.cfg.Address }

// ManagerAddress returns the subscription-management address.
func (b *Broker) ManagerAddress() string { return b.cfg.ManagerAddress }

// SubscriptionCount reports live subscriptions.
func (b *Broker) SubscriptionCount() int { return len(b.store.Active()) }

// Store exposes the lease store for scavenger wiring.
func (b *Broker) Store() *sublease.Store { return b.store }

// Stats snapshots the counters. Delivery counters come from the dispatch
// engine; Published and Mediations are broker-level concepts. Failures
// counts every terminally failed delivery — including the dead-lettered
// ones, which are additionally broken out in DeadLettered.
func (b *Broker) Stats() Stats {
	es := b.engine.Stats()
	return Stats{
		Published:    b.published.Load(),
		Delivered:    es.Delivered,
		Dropped:      es.Dropped,
		Failures:     es.Failed + es.DeadLettered,
		DeadLettered: es.DeadLettered,
		Mediations:   b.mediations.Load(),
	}
}

// DispatchStats exposes the raw engine counters (including Matched) for
// monitoring and benchmarks.
func (b *Broker) DispatchStats() dispatch.Stats { return b.engine.Stats() }

func (b *Broker) nextMessageID() string {
	return fmt.Sprintf("urn:uuid:wsm-%d", b.msgID.Add(1))
}

// BrokerID returns the broker's federation identity ("" when the broker
// is not federated).
func (b *Broker) BrokerID() string { return b.cfg.BrokerID }

// Publish is the broker's local (non-SOAP) publishing API, used by
// embedded deployments, examples and benchmarks. SOAP publishers arrive
// through the front door instead.
func (b *Broker) Publish(topic topics.Path, payload *xmldom.Element) error {
	return b.publish(topic, payload, "", nil)
}

// PublishRelayed republishes a notification that arrived over a peer link,
// preserving its relay provenance (origin broker, origin message id, hop
// count — already incremented by the ingest) so local fan-out carries it
// onward. It is the federation ingest's publishing API; everything else
// about the publish (topic bookkeeping, backend, fan-out, reliability) is
// identical to a local publish.
func (b *Broker) PublishRelayed(topic topics.Path, payload *xmldom.Element, relay *mediation.Relay) error {
	return b.publish(topic, payload, "", relay)
}

func (b *Broker) publish(topic topics.Path, payload *xmldom.Element, origin string, relay *mediation.Relay) error {
	b.published.Add(1)
	if !topic.IsZero() {
		b.mu.Lock()
		b.current[topic.String()] = payload.Clone()
		b.mu.Unlock()
		b.space.Add(topic)
	}
	if relay == nil && b.cfg.BrokerID != "" {
		// First publish on a federated broker: stamp provenance so peers
		// can dedup on (origin, id) and cap hops.
		relay = &mediation.Relay{Origin: b.cfg.BrokerID, ID: b.nextMessageID(), Hops: 0}
	}
	var pos uint64
	if b.log != nil {
		// Durable-ack: the append (fsynced, under batch durability) must
		// succeed before the publish is acknowledged — an error here means
		// the publish was not accepted and the caller must not assume
		// delivery. The fan-out below happens only for accepted publishes.
		var err error
		if pos, err = b.appendToLog(topic, payload, origin, relay); err != nil {
			return err
		}
		if relay != nil && relay.Pos == 0 && relay.Origin == b.cfg.BrokerID {
			// Locally originated publish: its own LogPos is its origin
			// position, carried on the wire so peers can cursor against
			// this broker's log.
			relay.Pos = pos
		}
	}
	return b.cfg.Backend.Publish(backend.Message{Topic: topic, Payload: payload, Origin: origin, Relay: relay, Pos: pos})
}

// fanOut is the backend fan-in: hand one message to the dispatch engine,
// which indexes candidates by topic, runs each candidate's full filter and
// delivers per the subscriber's mode. When the transport can take raw
// bytes, the message carries a render-template cache shared by every
// subscriber it fans out to.
func (b *Broker) fanOut(msg backend.Message) {
	fm := fanMsg{payload: msg.Payload, origin: msg.Origin, relay: msg.Relay}
	if b.rawClient != nil && !b.cfg.DisableRenderCache {
		fm.rs = newRenderSet()
	}
	b.engine.Dispatch(dispatch.Message{Topic: msg.Topic, Pos: msg.Pos, Payload: fm})
}

// DestWriter exposes the per-destination writer pool (nil when batching is
// off) for harnesses and operator surfaces.
func (b *Broker) DestWriter() *destwriter.Pool { return b.dest }

// FlushWrapped forces out every partially filled wrapped-mode batch.
func (b *Broker) FlushWrapped() { b.engine.FlushBatches() }

// Flush forces out partial wrapped batches and blocks until every queued
// delivery has been attempted. Callers must not publish concurrently with
// Flush.
func (b *Broker) Flush() {
	b.FlushWrapped()
	b.engine.Quiesce()
}

// Scavenge expires lapsed subscriptions.
func (b *Broker) Scavenge() int { return b.store.Scavenge() }

// --- Reliable-delivery operator surface ---

// DeadLetterCount reports buffered dead letters.
func (b *Broker) DeadLetterCount() int { return b.engine.DLQLen() }

// DeadLetters copies up to max buffered dead letters (all when max <= 0)
// without removing them — the operator inspection API.
func (b *Broker) DeadLetters(max int) []dispatch.DeadLetter {
	return b.engine.DeadLetters(max)
}

// DrainDeadLetters removes and returns up to max dead letters (all when
// max <= 0), oldest first.
func (b *Broker) DrainDeadLetters(max int) []dispatch.DeadLetter {
	return b.engine.DrainDeadLetters(max)
}

// ReplayDeadLetters redrives up to max dead letters (all when max <= 0)
// through their subscriptions' delivery paths — the "consumer recovered,
// requeue the backlog" operation. Letters whose subscription has since
// ended are discarded. It returns how many were requeued.
func (b *Broker) ReplayDeadLetters(max int) int {
	return b.engine.ReplayDeadLetters(max)
}

// BreakerState reports a subscription's circuit breaker state; ok is
// false when the id is unknown or the broker runs without breakers.
func (b *Broker) BreakerState(id string) (state dispatch.BreakerState, ok bool) {
	return b.engine.BreakerState(id)
}

// OpenBreakerCount reports how many subscriptions currently sit behind an
// open circuit breaker.
func (b *Broker) OpenBreakerCount() int { return b.engine.OpenBreakers() }

// DefaultDLQWatermark is the dead-letter depth at which HealthChecks
// reports the broker degraded, unless overridden.
const DefaultDLQWatermark = 512

// HealthChecks returns a check function for obs.HealthHandler: the broker
// is degraded while any circuit breaker is open (a consumer is down and
// its backlog is growing) or while the dead-letter queue holds at least
// dlqWatermark letters (<=0 means DefaultDLQWatermark).
func (b *Broker) HealthChecks(dlqWatermark int) func() []obs.HealthCheck {
	if dlqWatermark <= 0 {
		dlqWatermark = DefaultDLQWatermark
	}
	return func() []obs.HealthCheck {
		open := b.engine.OpenBreakers()
		dlq := b.engine.DLQLen()
		return []obs.HealthCheck{
			{Name: "breakers", OK: open == 0, Detail: fmt.Sprintf("%d open", open)},
			{Name: "dlq", OK: dlq < dlqWatermark,
				Detail: fmt.Sprintf("%d buffered, watermark %d", dlq, dlqWatermark)},
		}
	}
}

// Shutdown terminates every subscription (emitting end notices per the
// subscriber's spec), stops the dispatch workers and closes the backend.
func (b *Broker) Shutdown() {
	b.store.Shutdown()
	b.engine.Close()
	if b.dest != nil {
		b.dest.Close()
	}
	if b.cancelBackend != nil {
		b.cancelBackend()
	}
	b.cfg.Backend.Close()
	_ = b.CloseLog()
}

// newSubscription is the one way a subscription comes into being, whichever
// door asked: it completes st (canon, filter and any session options) with
// its delivery plan and registers it with the lease store and the dispatch
// engine. An empty sn.ID creates a fresh lease expiring at sn.Expires — the
// dispatch registration happens inside the store's creation lock, so no
// concurrent fan-out can observe a half-initialised subscription; a set
// sn.ID restores that snapshot entry, identity and pause state included.
func (b *Broker) newSubscription(st *subState, sn sublease.Snapshot) (id string, err error) {
	st.plan = mediation.DeliveryPlan{
		Dialect:         st.canon.Origin,
		UseRaw:          st.canon.UseRaw,
		SubscriptionID:  sn.ID,
		ManagerAddress:  b.cfg.ManagerAddress,
		ProducerAddress: b.cfg.Address,
		CEMode:          st.canon.CEMode,
	}
	if sn.ID == "" {
		return b.store.CreateFunc(func(id string) any {
			st.plan.SubscriptionID = id
			b.attach(id, st, false, sn.Expires)
			return st
		}, sn.Expires).ID, nil
	}
	sn.Data = st
	if err := b.store.Restore(sn); err != nil {
		return "", err
	}
	b.attach(sn.ID, st, sn.Paused, sn.Expires)
	return sn.ID, nil
}

// subscribeCE grants a CloudEvents-family subscription, the rule the /ce,
// /ws and MQTT doors share: compile the canonical filter chain, resolve the
// requested expiry against the broker's default and maximum, register.
func (b *Broker) subscribeCE(st *subState) (id string, expires time.Time, err error) {
	if st.flt, err = st.canon.BuildFilter(); err != nil {
		return "", expires, err
	}
	if expires, err = wse.ResolveExpires(st.canon.Expires, b.cfg.Clock()); err != nil {
		return "", expires, err
	}
	expires = b.grant(expires)
	id, err = b.newSubscription(st, sublease.Snapshot{Expires: expires})
	return id, expires, err
}

// attach registers a subscription with the dispatch engine, picking its
// sink from the canonical delivery options: WSE pull mode becomes a
// broker-side Pull buffer (drop-oldest at PullQueueCap); WSE wrapped mode
// hands deliverWrapped up to WrapBatchSize messages at a time; a session
// subscription (/ws, MQTT) is handed the un-rendered notification
// in-process; everything else is an HTTP consumer served by deliver. The
// three push sinks run through a bounded drop-newest queue drained by the
// shared worker pool, or inline (wrapped: in full batches) under SyncDelivery.
func (b *Broker) attach(id string, st *subState, paused bool, expires time.Time) {
	// clone isolates pull-buffer and wrapped-batch copies; the render set
	// is deliberately dropped — those buffers outlive the publish, and the
	// modes that use them never stamp from templates anyway.
	clone := func(m dispatch.Message) dispatch.Message {
		fm := m.Payload.(fanMsg)
		return dispatch.Message{Topic: m.Topic, Pos: m.Pos, Payload: fanMsg{payload: fm.payload.Clone(), origin: fm.origin, relay: fm.relay}}
	}
	sub := dispatch.Sub{
		ID:       id,
		Selector: dispatch.ForExpression(st.flt.TopicExpression()),
		Filter: func(m dispatch.Message) (bool, error) {
			ok, err := b.accepts(st, m)
			if err != nil || !ok {
				return false, err
			}
			if origin := m.Payload.(fanMsg).origin; origin != "" && origin != st.canon.Origin.Family.String() {
				b.mediations.Add(1)
			}
			return true, nil
		},
		FailureLimit: b.cfg.FailureLimit,
		OnEvict: func(id string) {
			b.store.Cancel(id, sublease.EndDeliveryFailure)
		},
		Paused:      paused,
		PauseBuffer: st.persistent,
		Deadline:    expires,
	}
	if st.persistent {
		sub.FailureLimit = -1 // never evict on failures: the session decides
	}
	push := func() {
		if b.cfg.SyncDelivery {
			sub.Mode = dispatch.Sync
			return
		}
		sub.Mode = dispatch.Queued
		sub.QueueCap = b.cfg.QueueDepth
		sub.Overflow = dispatch.DropNewest
		if b.dest != nil {
			// Per-destination batching: let the drain hand up to BatchMax
			// backlogged messages per delivery cycle so the dest pool can
			// coalesce them (plus whatever other subscribers queued for the
			// same host) into multi-message envelopes.
			sub.Batch = b.cfg.BatchMax
		}
	}
	switch {
	case st.canon.PullMode:
		sub.Mode = dispatch.Pull
		sub.QueueCap = b.cfg.PullQueueCap
		sub.Overflow = dispatch.DropOldest
		sub.Prepare = clone
	case st.canon.WrapMode:
		push()
		sub.Batch = b.cfg.WrapBatchSize
		sub.Prepare = clone
		sub.DeliverCtx = func(ctx context.Context, batch []dispatch.Message) error {
			return b.deliverWrapped(ctx, st, batch)
		}
	case st.session != nil:
		// The session treats payloads as read-only, so pause-buffered
		// persistent sessions replay from here without a Prepare clone.
		push()
		sub.DeliverCtx = func(ctx context.Context, batch []dispatch.Message) error {
			for _, m := range batch {
				if err := st.session(ctx, notification(m)); err != nil {
					return err
				}
			}
			return nil
		}
	default:
		push()
		sub.DeliverCtx = func(ctx context.Context, batch []dispatch.Message) error {
			return b.deliver(ctx, st, batch)
		}
	}
	_ = b.engine.Subscribe(sub)
}

// cancelSubscription ends a lease by explicit request. The store does not
// fire the end observer for EndCancelled (no end notice is owed), so the
// engine detach happens here.
func (b *Broker) cancelSubscription(id string) error {
	err := b.store.Cancel(id, sublease.EndCancelled)
	b.engine.Unsubscribe(id)
	return err
}

// renewSubscription extends a lease and mirrors the new deadline into the
// engine's soft-state expiry check.
func (b *Broker) renewSubscription(id string, t time.Time) (time.Time, error) {
	granted, err := b.store.Renew(id, t)
	if err == nil {
		b.engine.SetDeadline(id, granted)
	}
	return granted, err
}

// pauseSubscription suspends delivery, engine first: once the store
// snapshot reads Paused, matched messages are already buffering (or being
// skipped) rather than racing a consumer that asked for quiet. A pause the
// store refuses touched only an entry Dispatch already skips as lapsed.
func (b *Broker) pauseSubscription(id string) error {
	b.engine.Pause(id)
	return b.store.Pause(id)
}

// resumeSubscription re-enables delivery, flushing a buffering
// subscription's backlog — only for a lease the store still honours.
func (b *Broker) resumeSubscription(id string) error {
	err := b.store.Resume(id)
	if err == nil {
		b.engine.Resume(id)
	}
	return err
}

// grant settles a requested expiry (zero: none requested) under the
// broker's default and maximum.
func (b *Broker) grant(requested time.Time) time.Time {
	return sublease.Grant(requested, b.cfg.Clock(), b.cfg.DefaultExpiry, b.cfg.MaxExpiry)
}

// onLeaseEnd mediates the end-of-subscription notice into the
// subscriber's spec: SubscriptionEnd for WS-Eventing subscribers with an
// EndTo, WSRF TerminationNotification for WS-Notification 1.0 consumers,
// silence for 1.3 (Table 2).
func (b *Broker) onLeaseEnd(sn sublease.Snapshot, reason sublease.EndReason) {
	st, ok := sn.Data.(*subState)
	if !ok {
		return
	}
	b.engine.Unsubscribe(sn.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	switch st.canon.Origin.Family {
	case mediation.FamilyWSE:
		if st.canon.EndTo == nil {
			return
		}
		v := st.canon.Origin.WSE
		status := wse.EndSourceCanceling
		switch reason {
		case sublease.EndSourceShutdown:
			status = wse.EndSourceShuttingDown
		case sublease.EndDeliveryFailure:
			status = wse.EndDeliveryFailure
		}
		end := &wse.SubscriptionEnd{
			Manager: wsa.NewEPR(v.WSAVersion(), b.cfg.ManagerAddress),
			ID:      sn.ID,
			Status:  status,
			Reason:  string(reason),
		}
		env := soap.New(soap.V11)
		h := wsa.DestinationEPR(st.canon.EndTo, v.ActionSubscriptionEnd(), b.nextMessageID())
		h.Apply(env)
		env.AddBody(end.Element(v))
		_ = b.cfg.Client.Send(ctx, st.canon.EndTo.Address, env)
	case mediation.FamilyWSN:
		if st.canon.Origin.WSN != wsnt.V1_0 {
			return
		}
		env := soap.New(soap.V11)
		h := wsa.DestinationEPR(st.canon.Consumer, wsrf.ActionTerminationNotice, b.nextMessageID())
		h.Apply(env)
		env.AddBody(wsrf.NewTerminationNotification(b.cfg.Clock(), string(reason)))
		_ = b.cfg.Client.Send(ctx, st.canon.Consumer.Address, env)
	case mediation.FamilyCE:
		// CloudEvents subscribers get no end notice: the HTTP binding has
		// no vocabulary for one, and WebSocket-bound subscriptions end with
		// their connection anyway.
	}
}

// TopicSpace returns the topics the broker has observed.
func (b *Broker) TopicSpace() *topics.Space { return b.space }

// --- WSRF resources (WSN 1.0 subscription management, plus the broker
// itself as a resource advertising its WS-Topics TopicSet) ---

type brokerResources struct{ b *Broker }

func (br brokerResources) Resource(id string) (wsrf.Resource, error) {
	if id == "" {
		// No subscription id: the request addresses the broker itself,
		// whose resource properties advertise the observed topic set —
		// how WS-Topics says producers publish what can be subscribed to.
		return brokerSelfResource{br.b}, nil
	}
	sn, err := br.b.store.Get(id)
	if err != nil {
		return nil, err
	}
	st := sn.Data.(*subState)
	return wsnt.SubscriptionResource(wsnState{brokerState{br.b}}, wsnt.SubscriptionState{Snapshot: sn, Filter: st.flt, Consumer: st.canon.Consumer}), nil
}

// brokerSelfResource exposes broker-level resource properties.
type brokerSelfResource struct{ b *Broker }

// PropertyDocument returns the TopicSet and live statistics.
func (r brokerSelfResource) PropertyDocument() (*xmldom.Element, error) {
	ns := "urn:ws-messenger"
	doc := xmldom.NewElement(xmldom.N(ns, "BrokerProperties"))
	doc.Append(r.b.space.TopicSetElement())
	st := r.b.Stats()
	doc.Append(xmldom.Elem(ns, "Subscriptions", fmt.Sprint(r.b.SubscriptionCount())))
	doc.Append(xmldom.Elem(ns, "Published", fmt.Sprint(st.Published)))
	doc.Append(xmldom.Elem(ns, "Delivered", fmt.Sprint(st.Delivered)))
	doc.Append(xmldom.Elem(ns, "Mediations", fmt.Sprint(st.Mediations)))
	doc.Append(xmldom.Elem(ns, "DeadLetters", fmt.Sprint(r.b.DeadLetterCount())))
	if rec := r.b.cfg.Obs; rec != nil {
		// Delivery-latency percentiles as a resource property, so WSRF
		// GetResourceProperty clients see the same numbers /metrics serves.
		snap := rec.StageSnapshot(obs.StageDeliver)
		lat := xmldom.NewElement(xmldom.N(ns, "DeliveryLatency"))
		lat.Append(xmldom.Elem(ns, "P50", snap.Quantile(0.50).String()))
		lat.Append(xmldom.Elem(ns, "P95", snap.Quantile(0.95).String()))
		lat.Append(xmldom.Elem(ns, "P99", snap.Quantile(0.99).String()))
		doc.Append(lat)
	}
	return doc, nil
}

// SetTerminationTime is not meaningful for the broker resource.
func (brokerSelfResource) SetTerminationTime(time.Time) (time.Time, error) {
	return time.Time{}, soap.Faultf(soap.FaultSender, "the broker's lifetime cannot be scheduled")
}

// Destroy is not meaningful for the broker resource.
func (brokerSelfResource) Destroy() error {
	return soap.Faultf(soap.FaultSender, "the broker cannot be destroyed through WSRF")
}
