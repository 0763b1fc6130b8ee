package wsnt

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/soap"
	"repro/internal/sublease"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/wsrf"
	"repro/internal/xmldom"
)

// ProducerConfig configures a notification producer.
type ProducerConfig struct {
	// Version selects which WS-BaseNotification release to speak.
	Version Version
	// Address is the producer endpoint (Subscribe, GetCurrentMessage).
	Address string
	// ManagerAddress is the subscription manager endpoint; defaults to
	// Address.
	ManagerAddress string
	// Client delivers notifications.
	Client transport.Client
	// Clock is injectable for tests.
	Clock func() time.Time
	// DefaultExpiry is granted when InitialTerminationTime is omitted;
	// zero grants indefinite subscriptions.
	DefaultExpiry time.Duration
	// MaxExpiry caps grants; zero means no cap.
	MaxExpiry time.Duration
	// Properties is the producer's resource-properties document, the
	// target of ProducerProperties filters.
	Properties *xmldom.Element
	// Topics is the supported topic space. When FixedTopicSet is true,
	// subscriptions whose topic expression matches nothing in the space
	// are rejected with TopicNotSupportedFault.
	Topics        *topics.Space
	FixedTopicSet bool
}

func (c *ProducerConfig) withDefaults() ProducerConfig {
	out := *c
	if out.ManagerAddress == "" {
		out.ManagerAddress = out.Address
	}
	if out.Clock == nil {
		out.Clock = time.Now
	}
	if out.Topics == nil {
		out.Topics = topics.NewSpace()
	}
	return out
}

// subscription is the lease payload: the granted request and its filters.
type subscription struct {
	*SubscribeRequest
	flt filter.All
}

// Producer is a WS-BaseNotification NotificationProducer plus its
// subscription manager. Leases live in the store; delivery runs through
// the shared dispatch engine.
type Producer struct {
	cfg     ProducerConfig
	store   *sublease.Store
	eng     *dispatch.Engine
	msgID   atomic.Uint64
	mu      sync.Mutex                 // guards current
	current map[string]*xmldom.Element // last message per concrete topic
	wsrfSvc *wsrf.Service
}

// NewProducer builds a producer.
func NewProducer(cfg ProducerConfig) *Producer {
	p := &Producer{cfg: cfg.withDefaults(), current: map[string]*xmldom.Element{}}
	p.eng = dispatch.New(dispatch.Config{Clock: p.cfg.Clock})
	p.store = sublease.NewStore(
		sublease.WithClock(p.cfg.Clock),
		sublease.WithIDPrefix("wsnt"),
		sublease.WithEndObserver(p.onLeaseEnd),
	)
	p.wsrfSvc = &wsrf.Service{
		Provider:    producerState{p},
		Clock:       p.cfg.Clock,
		IDExtractor: p.subscriptionIDFromEnvelope,
	}
	return p
}

// SubscriptionCount reports live subscriptions.
func (p *Producer) SubscriptionCount() int { return len(p.store.Active()) }

func (p *Producer) nextMessageID() string {
	return fmt.Sprintf("urn:uuid:wsnt-msg-%d", p.msgID.Add(1))
}

func (p *Producer) subscriptionIDFromEnvelope(env *soap.Envelope) string {
	if h := env.Header(p.cfg.Version.SubscriptionIDName()); h != nil {
		return strings.TrimSpace(h.Text())
	}
	return ""
}

// ProducerHandler returns the handler for the producer endpoint:
// Subscribe and GetCurrentMessage.
func (p *Producer) ProducerHandler() transport.Handler {
	return transport.HandlerFunc(func(ctx context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		body := env.FirstBody()
		if body == nil {
			return nil, FaultSubscribeCreationFailed(p.cfg.Version, "empty body")
		}
		switch {
		case body.Name.Local == "Subscribe":
			return HandleSubscribe(p.cfg.Version, producerState{p}, env, p.nextMessageID)
		case body.Name == xmldom.N(p.cfg.Version.NS(), "GetCurrentMessage"):
			return HandleGetCurrentMessage(p.cfg.Version, producerState{p}, env, p.nextMessageID)
		case p.cfg.ManagerAddress == p.cfg.Address:
			return p.ManagerHandler().ServeSOAP(ctx, env)
		}
		return nil, FaultUnsupportedOperation(p.cfg.Version, body.Name.Local)
	})
}

// ManagerHandler returns the subscription manager handler. For 1.0 this is
// a WSRF service (plus the required pause/resume); for 1.3 it exposes the
// native Renew/Unsubscribe/Pause/Resume operations.
func (p *Producer) ManagerHandler() transport.Handler {
	return transport.HandlerFunc(func(ctx context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		v := p.cfg.Version
		if !wsrf.Handles(env) {
			return HandleManagement(v, producerState{p}, env, p.subscriptionIDFromEnvelope(env), p.nextMessageID)
		}
		// WSRF operations: the 1.0 path (1.3 makes WSRF optional and this
		// implementation composes it only where required).
		if !v.RequiresWSRF() {
			return nil, FaultUnsupportedOperation(v,
				env.FirstBody().Name.Local+" (WSRF is optional in 1.3 and not composed here)")
		}
		return p.wsrfSvc.ServeSOAP(ctx, env)
	})
}

// producerState is the Producer's lease store, dispatch engine and current
// messages as the spec handlers and the WSRF service see them. Every change
// reaches both store and engine.
type producerState struct{ *Producer }

func (p producerState) Now() time.Time         { return p.cfg.Clock() }
func (p producerState) ManagerAddress() string { return p.cfg.ManagerAddress }

func (p producerState) Grant(requested time.Time) time.Time {
	return sublease.Grant(requested, p.cfg.Clock(), p.cfg.DefaultExpiry, p.cfg.MaxExpiry)
}

// Create refuses, under FixedTopicSet, a topic expression that matches
// nothing in the advertised topic space.
func (p producerState) Create(v Version, req *SubscribeRequest, flt filter.All, expires time.Time) (string, error) {
	if e := flt.TopicExpression(); e != nil && p.cfg.FixedTopicSet && !p.cfg.Topics.Supports(e) {
		return "", FaultTopicNotSupported(v, req.TopicExpression)
	}
	sub := &subscription{req, flt}
	lease := p.store.Create(sub, expires)
	p.attach(lease.ID, sub, expires)
	return lease.ID, nil
}

func (p producerState) Renew(id string, expires time.Time) (time.Time, error) {
	granted, err := p.store.Renew(id, expires)
	if err == nil {
		p.eng.SetDeadline(id, granted)
	}
	return granted, err
}

func (p producerState) Unsubscribe(id string) error {
	err := p.store.Cancel(id, sublease.EndCancelled)
	p.eng.Unsubscribe(id)
	return err
}

// Pause quiets the engine first; Resume wakes it only for a lease the store
// still honours.
func (p producerState) Pause(id string) error {
	p.eng.Pause(id)
	return p.store.Pause(id)
}

func (p producerState) Resume(id string) error {
	err := p.store.Resume(id)
	if err == nil {
		p.eng.Resume(id)
	}
	return err
}

// Resource serves 1.0 subscriptions as WS-Resources.
func (p producerState) Resource(id string) (wsrf.Resource, error) {
	sn, err := p.store.Get(id)
	if err != nil {
		return nil, err
	}
	sub := sn.Data.(*subscription)
	return SubscriptionResource(p, SubscriptionState{sn, sub.flt, sub.ConsumerReference}), nil
}

func (p producerState) CurrentMessage(topic topics.Path) *xmldom.Element {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.current[topic.String()]
}

// publication is one PublishBatch call as the dispatch engine carries it.
// Delivery is inline, so each subscription's filter records its share of
// the payloads in accepted for its Deliver to send before the next one.
type publication struct {
	ctx      context.Context
	topic    topics.Path
	payloads []*xmldom.Element
	props    *xmldom.Element
	accepted []*xmldom.Element
	err      error // the first failed send
}

// accept evaluates flt once per payload, keeping the payloads it passes.
func (pub *publication) accept(flt filter.All) bool {
	pub.accepted = pub.accepted[:0]
	for _, pl := range pub.payloads {
		if ok, err := flt.Accepts(filter.Message{Topic: pub.topic, Payload: pl, ProducerProperties: pub.props}); err == nil && ok {
			pub.accepted = append(pub.accepted, pl)
		}
	}
	return len(pub.accepted) > 0
}

// attach registers a subscription with the dispatch engine, indexed by its
// topic expression. The engine evicts it after three consecutive failed
// deliveries, ending its lease with EndDeliveryFailure.
func (p *Producer) attach(id string, sub *subscription, expires time.Time) {
	_ = p.eng.Subscribe(dispatch.Sub{
		ID:       id,
		Selector: dispatch.ForExpression(sub.flt.TopicExpression()),
		Filter: func(m dispatch.Message) (bool, error) {
			return m.Payload.(*publication).accept(sub.flt), nil
		},
		Deliver: func(batch []dispatch.Message) error {
			return p.deliver(id, sub, batch[0].Payload.(*publication))
		},
		OnEvict:  func(id string) { p.store.Cancel(id, sublease.EndDeliveryFailure) },
		Deadline: expires,
	})
}

// Publish delivers a payload on a topic to every matching subscription and
// records it as the topic's current message. It returns the number of
// subscriptions that matched and the first failed send.
func (p *Producer) Publish(ctx context.Context, topic topics.Path, payload *xmldom.Element) (int, error) {
	return p.PublishBatch(ctx, topic, []*xmldom.Element{payload})
}

// PublishBatch delivers several payloads on one topic, the last becoming
// its current message: each subscription receives the payloads it accepts
// in one Notify — the efficiency case for the wrapped mode (§V.3 "Delivery
// mode") — or, raw, one message each.
func (p *Producer) PublishBatch(ctx context.Context, topic topics.Path, payloads []*xmldom.Element) (int, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	if !topic.IsZero() {
		p.cfg.Topics.Add(topic)
		p.mu.Lock()
		p.current[topic.String()] = payloads[len(payloads)-1].Clone()
		p.mu.Unlock()
	}
	pub := &publication{ctx: ctx, topic: topic, payloads: payloads, props: p.cfg.Properties}
	n := p.eng.Dispatch(dispatch.Message{Topic: topic, Payload: pub})
	return n, pub.err
}

func (p *Producer) notificationMessage(subID string, topic topics.Path, payload *xmldom.Element) *NotificationMessage {
	v := p.cfg.Version
	nm := &NotificationMessage{Topic: topic, Payload: payload.Clone()}
	if v == V1_3 {
		ref := wsa.NewEPR(v.WSAVersion(), p.cfg.ManagerAddress)
		ref.AddReferenceParameter(xmldom.Elem(v.NS(), "SubscriptionId", subID))
		nm.SubscriptionReference = ref
		nm.ProducerReference = wsa.NewEPR(v.WSAVersion(), p.cfg.Address)
	}
	return nm
}

// deliver sends a subscription its share of a publication: raw payloads or
// one Notify, per the subscription's policy (§V.3 "Message encapsulation").
func (p *Producer) deliver(subID string, sub *subscription, pub *publication) error {
	var err error
	if sub.UseRaw {
		for _, pl := range pub.accepted {
			if e := p.send(pub.ctx, sub, pl.Clone()); e != nil && err == nil {
				err = e
			}
		}
	} else {
		msgs := make([]*NotificationMessage, len(pub.accepted))
		for i, pl := range pub.accepted {
			msgs[i] = p.notificationMessage(subID, pub.topic, pl)
		}
		err = p.send(pub.ctx, sub, NotifyElement(p.cfg.Version, msgs))
	}
	if err != nil && pub.err == nil {
		pub.err = err
	}
	return err
}

func (p *Producer) send(ctx context.Context, sub *subscription, body *xmldom.Element) error {
	env := soap.New(soap.V11)
	wsa.DestinationEPR(sub.ConsumerReference, p.cfg.Version.ActionNotify(), p.nextMessageID()).Apply(env)
	env.AddBody(body)
	return p.cfg.Client.Send(ctx, sub.ConsumerReference.Address, env)
}

// HasTopicDemand reports whether any live, unpaused subscription would
// accept messages on the given topic, judged by topic filters alone
// (content filters depend on payloads that do not exist yet). A
// subscription without a topic filter demands everything. The notification
// broker uses this to drive demand-based publishers (§V.5).
func (p *Producer) HasTopicDemand(topic topics.Path) bool {
	for _, sn := range p.store.Deliverable() {
		if e := sn.Data.(*subscription).flt.TopicExpression(); e == nil || e.Matches(topic) {
			return true
		}
	}
	return false
}

// Shutdown ends all subscriptions (1.0 consumers receive WSRF
// TerminationNotifications).
func (p *Producer) Shutdown() { p.store.Shutdown() }

// Scavenge expires lapsed subscriptions.
func (p *Producer) Scavenge() int { return p.store.Scavenge() }

// onLeaseEnd sends the WSRF TerminationNotification — the WSN analogue of
// SubscriptionEnd (Table 2) — to the consumer. Only 1.0 composes WSRF, so
// 1.3 subscriptions end silently, exactly the gap the paper's Table 1
// lower rows record.
func (p *Producer) onLeaseEnd(sn sublease.Snapshot, reason sublease.EndReason) {
	p.eng.Unsubscribe(sn.ID)
	if !p.cfg.Version.RequiresWSRF() {
		return
	}
	sub := sn.Data.(*subscription)
	env := soap.New(soap.V11)
	wsa.DestinationEPR(sub.ConsumerReference, wsrf.ActionTerminationNotice, p.nextMessageID()).Apply(env)
	env.AddBody(wsrf.NewTerminationNotification(p.cfg.Clock(), string(reason)))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = p.cfg.Client.Send(ctx, sub.ConsumerReference.Address, env)
}
