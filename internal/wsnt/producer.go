package wsnt

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/filter"
	"repro/internal/soap"
	"repro/internal/sublease"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/wsrf"
	"repro/internal/xmldom"
	"repro/internal/xsdt"
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
	// FailureLimit drops a subscription after this many consecutive
	// delivery failures (default 3).
	FailureLimit int
}

func (c *ProducerConfig) withDefaults() ProducerConfig {
	out := *c
	if out.ManagerAddress == "" {
		out.ManagerAddress = out.Address
	}
	if out.Clock == nil {
		out.Clock = time.Now
	}
	if out.FailureLimit <= 0 {
		out.FailureLimit = 3
	}
	if out.Topics == nil {
		out.Topics = topics.NewSpace()
	}
	return out
}

// subscription is the lease payload.
type subscription struct {
	consumer  *wsa.EndpointReference
	flt       filter.All
	useRaw    bool
	topicExpr string

	mu       sync.Mutex
	failures int
}

// Producer is a WS-BaseNotification NotificationProducer plus its
// subscription manager.
type Producer struct {
	cfg     ProducerConfig
	store   *sublease.Store
	msgID   uint64
	mu      sync.Mutex
	current map[string]*xmldom.Element // last message per concrete topic
	wsrfSvc *wsrf.Service
}

// NewProducer builds a producer.
func NewProducer(cfg ProducerConfig) *Producer {
	p := &Producer{cfg: cfg.withDefaults(), current: map[string]*xmldom.Element{}}
	p.store = sublease.NewStore(
		sublease.WithClock(p.cfg.Clock),
		sublease.WithIDPrefix("wsnt"),
		sublease.WithEndObserver(p.onLeaseEnd),
	)
	p.wsrfSvc = &wsrf.Service{
		Provider:    wsrfProvider{p},
		Clock:       p.cfg.Clock,
		IDExtractor: p.subscriptionIDFromEnvelope,
	}
	return p
}

// Version returns the spec version.
func (p *Producer) Version() Version { return p.cfg.Version }

// Address returns the producer endpoint address.
func (p *Producer) Address() string { return p.cfg.Address }

// ManagerAddress returns the subscription manager address.
func (p *Producer) ManagerAddress() string { return p.cfg.ManagerAddress }

// SubscriptionCount reports live subscriptions.
func (p *Producer) SubscriptionCount() int { return len(p.store.Active()) }

// Store exposes the lease store (scavenger wiring).
func (p *Producer) Store() *sublease.Store { return p.store }

// TopicSpace returns the producer's topic space.
func (p *Producer) TopicSpace() *topics.Space { return p.cfg.Topics }

func (p *Producer) nextMessageID() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.msgID++
	return fmt.Sprintf("urn:uuid:wsnt-msg-%d", p.msgID)
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
		ns := p.cfg.Version.NS()
		switch body.Name {
		case xmldom.N(ns, "Subscribe"):
			return p.handleSubscribe(env)
		case xmldom.N(ns, "GetCurrentMessage"):
			return HandleGetCurrentMessage(p.cfg.Version, producerState{p}, env, p.nextMessageID)
		}
		if p.cfg.ManagerAddress == p.cfg.Address {
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

func (p *Producer) handleSubscribe(env *soap.Envelope) (*soap.Envelope, error) {
	v := p.cfg.Version
	req, reqVer, err := ParseSubscribe(env.FirstBody())
	if err != nil {
		return nil, FaultSubscribeCreationFailed(v, err.Error())
	}
	if reqVer != v {
		return nil, FaultSubscribeCreationFailed(v,
			fmt.Sprintf("subscribe uses %v, this producer speaks %v", reqVer, v))
	}
	if err := req.Validate(v); err != nil {
		return nil, err
	}

	flt, err := req.BuildFilter(v)
	if err != nil {
		return nil, FaultInvalidFilter(v, err.Error())
	}

	// Topic support check against the advertised topic space.
	if tf, ok := topicFilter(flt); ok && p.cfg.FixedTopicSet && !p.cfg.Topics.Supports(tf.Expr) {
		return nil, FaultTopicNotSupported(v, req.TopicExpression)
	}

	now := p.cfg.Clock()
	requested, err := v.ResolveTerminationTime(req.InitialTerminationTime, now)
	if err != nil {
		return nil, FaultUnacceptableTerminationTime(v, err.Error())
	}
	expires := sublease.Grant(requested, now, p.cfg.DefaultExpiry, p.cfg.MaxExpiry)

	sub := &subscription{
		consumer:  req.ConsumerReference,
		flt:       flt,
		useRaw:    req.UseRaw,
		topicExpr: req.TopicExpression,
	}
	lease := p.store.Create(sub, expires)

	resp := &SubscribeResponse{
		SubscriptionReference: wsa.NewEPR(v.WSAVersion(), p.cfg.ManagerAddress),
		ID:                    lease.ID,
		CurrentTime:           xsdt.FormatDateTime(now),
	}
	if !expires.IsZero() {
		resp.TerminationTime = xsdt.FormatDateTime(expires)
	}
	return reply(v, env, resp.Element(v), p.nextMessageID), nil
}

// producerState is the Producer's lease store and current messages as
// HandleManagement and HandleGetCurrentMessage see them.
type producerState struct{ *Producer }

func (p producerState) Now() time.Time { return p.cfg.Clock() }

func (p producerState) Renew(id string, requested time.Time) (time.Time, error) {
	return p.store.Renew(id, sublease.Grant(requested, p.cfg.Clock(), p.cfg.DefaultExpiry, p.cfg.MaxExpiry))
}

func (p producerState) Unsubscribe(id string) error { return p.store.Cancel(id, sublease.EndCancelled) }
func (p producerState) Pause(id string) error       { return p.store.Pause(id) }
func (p producerState) Resume(id string) error      { return p.store.Resume(id) }

func (p producerState) CurrentMessage(topic topics.Path) *xmldom.Element {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.current[topic.String()]
}

// Publish delivers a payload on a topic to every matching subscription and
// records it as the topic's current message. It returns the number of
// deliveries attempted.
func (p *Producer) Publish(ctx context.Context, topic topics.Path, payload *xmldom.Element) (int, error) {
	p.setCurrent(topic, payload)
	msg := filter.Message{Topic: topic, Payload: payload, ProducerProperties: p.cfg.Properties}
	var firstErr error
	delivered := 0
	for _, sn := range p.store.Deliverable() {
		sub := sn.Data.(*subscription)
		ok, err := sub.flt.Accepts(msg)
		if err != nil || !ok {
			continue
		}
		delivered++
		if err := p.deliver(ctx, sn.ID, sub, topic, payload); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return delivered, firstErr
}

// setCurrent records payload as topic's current message.
func (p *Producer) setCurrent(topic topics.Path, payload *xmldom.Element) {
	if !topic.IsZero() {
		p.cfg.Topics.Add(topic)
		p.mu.Lock()
		p.current[topic.String()] = payload.Clone()
		p.mu.Unlock()
	}
}

// PublishBatch wraps several messages into one Notify per subscriber —
// the efficiency case for the wrapped mode (§V.3 "Delivery mode").
func (p *Producer) PublishBatch(ctx context.Context, topic topics.Path, payloads []*xmldom.Element) (int, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	p.setCurrent(topic, payloads[len(payloads)-1])
	v := p.cfg.Version
	var firstErr error
	delivered := 0
	for _, sn := range p.store.Deliverable() {
		sub := sn.Data.(*subscription)
		var accepted []*xmldom.Element
		for _, pl := range payloads {
			ok, err := sub.flt.Accepts(filter.Message{Topic: topic, Payload: pl, ProducerProperties: p.cfg.Properties})
			if err == nil && ok {
				accepted = append(accepted, pl)
			}
		}
		if len(accepted) == 0 {
			continue
		}
		delivered++
		var err error
		if sub.useRaw {
			for _, pl := range accepted {
				if e := p.send(ctx, sn.ID, sub, pl.Clone()); e != nil && err == nil {
					err = e
				}
			}
		} else {
			msgs := make([]*NotificationMessage, len(accepted))
			for i, pl := range accepted {
				msgs[i] = p.notificationMessage(sn.ID, topic, pl)
			}
			err = p.send(ctx, sn.ID, sub, NotifyElement(v, msgs))
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return delivered, firstErr
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

// deliver sends one message: raw payload or single-entry Notify, per the
// subscription's policy (§V.3 "Message encapsulation").
func (p *Producer) deliver(ctx context.Context, subID string, sub *subscription, topic topics.Path, payload *xmldom.Element) error {
	if sub.useRaw {
		return p.send(ctx, subID, sub, payload.Clone())
	}
	return p.send(ctx, subID, sub, NotifyElement(p.cfg.Version, []*NotificationMessage{
		p.notificationMessage(subID, topic, payload),
	}))
}

func (p *Producer) send(ctx context.Context, subID string, sub *subscription, body *xmldom.Element) error {
	env := soap.New(soap.V11)
	h := wsa.DestinationEPR(sub.consumer, p.cfg.Version.ActionNotify(), p.nextMessageID())
	h.Apply(env)
	env.AddBody(body)
	err := p.cfg.Client.Send(ctx, sub.consumer.Address, env)
	sub.mu.Lock()
	if err == nil {
		sub.failures = 0
		sub.mu.Unlock()
		return nil
	}
	sub.failures++
	drop := sub.failures >= p.cfg.FailureLimit
	sub.mu.Unlock()
	if drop {
		p.store.Cancel(subID, sublease.EndDeliveryFailure)
	}
	return err
}

// HasTopicDemand reports whether any live, unpaused subscription would
// accept messages on the given topic, judged by topic filters alone
// (content filters depend on payloads that do not exist yet). A
// subscription without a topic filter demands everything. The notification
// broker uses this to drive demand-based publishers (§V.5).
func (p *Producer) HasTopicDemand(topic topics.Path) bool {
	for _, sn := range p.store.Deliverable() {
		if tf, ok := topicFilter(sn.Data.(*subscription).flt); !ok || tf.Expr.Matches(topic) {
			return true
		}
	}
	return false
}

// topicFilter is the topic filter of a compiled chain, if it has one.
func topicFilter(flt filter.All) (filter.Topic, bool) {
	for _, f := range flt {
		if tf, ok := f.(filter.Topic); ok {
			return tf, true
		}
	}
	return filter.Topic{}, false
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
	if !p.cfg.Version.RequiresWSRF() {
		return
	}
	sub, ok := sn.Data.(*subscription)
	if !ok {
		return
	}
	env := soap.New(soap.V11)
	h := wsa.DestinationEPR(sub.consumer, wsrf.ActionTerminationNotice, p.nextMessageID())
	h.Apply(env)
	env.AddBody(wsrf.NewTerminationNotification(p.cfg.Clock(), string(reason)))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = p.cfg.Client.Send(ctx, sub.consumer.Address, env)
}

// --- WSRF resource adapter (1.0 subscriptions are WS-Resources) ---

type wsrfProvider struct{ p *Producer }

func (wp wsrfProvider) Resource(id string) (wsrf.Resource, error) {
	if _, err := wp.p.store.Get(id); err != nil {
		return nil, err
	}
	return &subResource{p: wp.p, id: id}, nil
}

type subResource struct {
	p  *Producer
	id string
}

// PropertyDocument renders the subscription's resource properties — what
// a 1.0 subscriber reads instead of calling GetStatus (Table 2).
func (r *subResource) PropertyDocument() (*xmldom.Element, error) {
	sn, err := r.p.store.Get(r.id)
	if err != nil {
		return nil, err
	}
	sub := sn.Data.(*subscription)
	ns := r.p.cfg.Version.NS()
	doc := xmldom.NewElement(xmldom.N(ns, "SubscriptionProperties"))
	doc.Append(xmldom.Elem(ns, "CreationTime", xsdt.FormatDateTime(sn.CreatedAt)))
	if !sn.Expires.IsZero() {
		doc.Append(xmldom.Elem(ns, "TerminationTime", xsdt.FormatDateTime(sn.Expires)))
	}
	if sub.topicExpr != "" {
		doc.Append(xmldom.Elem(ns, "TopicExpression", sub.topicExpr))
	}
	status := "Active"
	if sn.Paused {
		status = "Paused"
	}
	doc.Append(xmldom.Elem(ns, "Status", status))
	doc.Append(xmldom.Elem(ns, "ConsumerReference", sub.consumer.Address))
	return doc, nil
}

// SetTerminationTime implements renew-via-WSRF.
func (r *subResource) SetTerminationTime(t time.Time) (time.Time, error) {
	return r.p.store.Renew(r.id, t)
}

// Destroy implements unsubscribe-via-WSRF.
func (r *subResource) Destroy() error {
	return r.p.store.Cancel(r.id, sublease.EndCancelled)
}
