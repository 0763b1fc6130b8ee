// Package wsen prototypes WS-EventNotification: the converged
// specification the paper's conclusion anticipates ("a white paper from
// IBM, Microsoft, HP and Intel proposes creating a new standard,
// WS-EventNotification, that will integrate functions from
// WS-Notification with WS-Eventing", §VIII, citing [29]).
//
// The prototype takes each Table 1 row at the better of the two parents:
//
//   - from WS-Eventing: the Delivery extension point with a Mode
//     attribute (push/pull/wrapped selectable in the subscribe message),
//     EndTo + SubscriptionEnd, GetStatus, duration-or-absolute Expires,
//     and the XPath content dialect;
//   - from WS-Notification: the unified Filter element with
//     TopicExpression / MessageContent / ProducerProperties children, a
//     *defined* wrapped message format (Notify/NotificationMessage),
//     Pause/Resume, and GetCurrentMessage;
//   - subscription identifiers as WS-Addressing 2005/08 reference
//     parameters; no WSRF dependency; no required topic.
//
// Because this spec never shipped (history went the other way: both
// parents survived), the package is an executable extrapolation, not a
// reproduction; EXPERIMENTS.md lists it under extensions.
package wsen

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/soap"
	"repro/internal/spec"
	"repro/internal/sublease"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/xmldom"
	"repro/internal/xsdt"
)

// NS is the prototype namespace.
const NS = "urn:ws-messenger:wsen:2006"

func init() { xmldom.RegisterPrefix(NS, "wsen") }

// Delivery mode URIs: the WSE extension point with all three modes
// first-class.
const (
	ModePush = NS + "/DeliveryModes/Push"
	ModePull = NS + "/DeliveryModes/Pull"
	ModeWrap = NS + "/DeliveryModes/Wrap"
)

// SubscriptionIDName is the reference parameter carrying the id.
var SubscriptionIDName = xmldom.N(NS, "SubscriptionId")

// Capabilities declares the converged spec's Table 1 row — every
// capability of both parents, none of the restrictions.
func Capabilities() spec.Capabilities {
	return spec.Capabilities{
		Name:                        "WS-EventNotification (prototype)",
		ReleaseTag:                  "proposed 2006",
		SeparateSubscriptionManager: true,
		SeparateSubscriberAndSink:   true,
		GetStatusOperation:          true,
		GetStatusRequired:           true,
		SubscriptionIDInWSA:         true,
		WrappedDelivery:             true,
		DefinesWrappedFormat:        true,
		PullDelivery:                true,
		PullModeInSubscription:      true,
		PullPointInterface:          false, // pull is a delivery mode, not a separate factory
		DurationExpiry:              true,
		XPathDialect:                true,
		FilterElement:               true,
		RequiresWSRF:                false,
		RequiresTopic:               false,
		PauseResume:                 true,
		PauseResumeRequired:         false,
		GetCurrentMessage:           true,
		SeparatePublisher:           true,
		SubscriptionEnd:             true,
		WSAVersion:                  wsa.V200508.String(),
	}
}

// SubscribeRequest is the converged subscribe message: WSE's Delivery and
// EndTo beside WSN's unified Filter.
type SubscribeRequest struct {
	NotifyTo *wsa.EndpointReference
	EndTo    *wsa.EndpointReference
	Mode     string // "" = push
	Expires  string // duration or dateTime

	TopicExpr    string
	TopicDialect string
	TopicNS      map[string]string

	ContentExpr string
	ContentNS   map[string]string

	ProducerPropsExpr string
	ProducerPropsNS   map[string]string
}

// Element renders the subscribe body.
func (r *SubscribeRequest) Element() *xmldom.Element {
	sub := xmldom.NewElement(xmldom.N(NS, "Subscribe"))
	if r.EndTo != nil {
		sub.Append(r.EndTo.Convert(wsa.V200508).Element(xmldom.N(NS, "EndTo")))
	}
	delivery := xmldom.NewElement(xmldom.N(NS, "Delivery"))
	if r.Mode != "" {
		delivery.SetAttr(xmldom.N("", "Mode"), r.Mode)
	}
	if r.NotifyTo != nil {
		delivery.Append(r.NotifyTo.Convert(wsa.V200508).Element(xmldom.N(NS, "NotifyTo")))
	}
	sub.Append(delivery)
	if r.TopicExpr != "" || r.ContentExpr != "" || r.ProducerPropsExpr != "" {
		f := xmldom.NewElement(xmldom.N(NS, "Filter"))
		if r.TopicExpr != "" {
			te := xmldom.Elem(NS, "TopicExpression", r.TopicExpr)
			if r.TopicDialect != "" {
				te.SetAttr(xmldom.N("", "Dialect"), r.TopicDialect)
			}
			for p, u := range r.TopicNS {
				te.DeclarePrefix(p, u)
			}
			f.Append(te)
		}
		if r.ContentExpr != "" {
			mc := xmldom.Elem(NS, "MessageContent", r.ContentExpr)
			mc.SetAttr(xmldom.N("", "Dialect"), filter.DialectXPath10)
			for p, u := range r.ContentNS {
				mc.DeclarePrefix(p, u)
			}
			f.Append(mc)
		}
		if r.ProducerPropsExpr != "" {
			pp := xmldom.Elem(NS, "ProducerProperties", r.ProducerPropsExpr)
			for p, u := range r.ProducerPropsNS {
				pp.DeclarePrefix(p, u)
			}
			f.Append(pp)
		}
		sub.Append(f)
	}
	if r.Expires != "" {
		sub.Append(xmldom.Elem(NS, "Expires", r.Expires))
	}
	return sub
}

// ParseSubscribe reads a subscribe body.
func ParseSubscribe(body *xmldom.Element) (*SubscribeRequest, error) {
	if body.Name != xmldom.N(NS, "Subscribe") {
		return nil, fmt.Errorf("wsen: not a Subscribe body: %v", body.Name)
	}
	req := &SubscribeRequest{Expires: body.ChildText(xmldom.N(NS, "Expires"))}
	if endTo := body.Child(xmldom.N(NS, "EndTo")); endTo != nil {
		epr, err := wsa.ParseEPR(endTo)
		if err != nil {
			return nil, err
		}
		req.EndTo = epr
	}
	if d := body.Child(xmldom.N(NS, "Delivery")); d != nil {
		req.Mode = d.AttrValue(xmldom.N("", "Mode"))
		if nt := d.Child(xmldom.N(NS, "NotifyTo")); nt != nil {
			epr, err := wsa.ParseEPR(nt)
			if err != nil {
				return nil, err
			}
			req.NotifyTo = epr
		}
	}
	if f := body.Child(xmldom.N(NS, "Filter")); f != nil {
		if te := f.Child(xmldom.N(NS, "TopicExpression")); te != nil {
			req.TopicExpr = strings.TrimSpace(te.Text())
			req.TopicDialect = te.AttrValue(xmldom.N("", "Dialect"))
			req.TopicNS = te.ScopeBindings()
		}
		if mc := f.Child(xmldom.N(NS, "MessageContent")); mc != nil {
			req.ContentExpr = strings.TrimSpace(mc.Text())
			req.ContentNS = mc.ScopeBindings()
		}
		if pp := f.Child(xmldom.N(NS, "ProducerProperties")); pp != nil {
			req.ProducerPropsExpr = strings.TrimSpace(pp.Text())
			req.ProducerPropsNS = pp.ScopeBindings()
		}
	}
	return req, nil
}

// buildFilter compiles the unified Filter element as WS-Notification 1.3
// does, except that an undialected topic expression is a full one.
func (r *SubscribeRequest) buildFilter() (filter.All, error) {
	dialect := r.TopicDialect
	if dialect == "" {
		dialect = topics.DialectFull
	}
	return (&wsnt.SubscribeRequest{TopicExpression: r.TopicExpr, TopicDialect: dialect, TopicNS: r.TopicNS,
		ContentExpr: r.ContentExpr, ContentNS: r.ContentNS,
		ProducerPropsExpr: r.ProducerPropsExpr, ProducerPropsNS: r.ProducerPropsNS}).BuildFilter(wsnt.V1_3)
}

// subscription is the lease payload.
type subscription struct {
	notifyTo *wsa.EndpointReference
	endTo    *wsa.EndpointReference
	mode     string
	flt      filter.All
}

// NotificationMessage matches WSN's defined wrapped format.
type NotificationMessage struct {
	Topic   topics.Path
	Payload *xmldom.Element
}

// Producer is a converged event source / notification producer with its
// subscription manager. Leases live in the store; delivery runs through the
// shared dispatch engine.
type Producer struct {
	Address        string
	ManagerAddress string
	Client         transport.Client
	Clock          func() time.Time
	Properties     *xmldom.Element
	WrapBatchSize  int

	store   *sublease.Store
	eng     *dispatch.Engine
	mu      sync.Mutex
	current map[string]*xmldom.Element
	msgID   uint64
}

// NewProducer builds a producer.
func NewProducer(address, managerAddress string, client transport.Client, clock func() time.Time) *Producer {
	if managerAddress == "" {
		managerAddress = address
	}
	if clock == nil {
		clock = time.Now
	}
	p := &Producer{
		Address: address, ManagerAddress: managerAddress, Client: client, Clock: clock,
		WrapBatchSize: 10, current: map[string]*xmldom.Element{},
	}
	p.eng = dispatch.New(dispatch.Config{Clock: clock})
	p.store = sublease.NewStore(
		sublease.WithClock(clock),
		sublease.WithIDPrefix("wsen"),
		sublease.WithEndObserver(p.onLeaseEnd),
	)
	return p
}

// SubscriptionCount reports live subscriptions.
func (p *Producer) SubscriptionCount() int { return len(p.store.Active()) }

func (p *Producer) nextMessageID() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.msgID++
	return fmt.Sprintf("urn:uuid:wsen-%d", p.msgID)
}

func fault(code, why string) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "%s", why)
	f.Subcode = xmldom.N(NS, code)
	return f
}

// Handler serves every operation at one endpoint (the prototype does not
// force an endpoint split; the manager address only names the EPR).
func (p *Producer) Handler() transport.Handler {
	return transport.HandlerFunc(func(_ context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		body := env.FirstBody()
		if body == nil || body.Name.Space != NS {
			return nil, fault("InvalidMessage", "not a WS-EventNotification request")
		}
		switch body.Name.Local {
		case "Subscribe":
			return p.handleSubscribe(env, body)
		case "Renew", "GetStatus", "Unsubscribe", "Pull", "PauseSubscription", "ResumeSubscription":
			return p.handleManagement(env, body)
		case "GetCurrentMessage":
			return p.handleGetCurrentMessage(env, body)
		}
		return nil, fault("InvalidMessage", "unknown operation "+body.Name.Local)
	})
}

func (p *Producer) handleSubscribe(env *soap.Envelope, body *xmldom.Element) (*soap.Envelope, error) {
	req, err := ParseSubscribe(body)
	if err != nil {
		return nil, fault("InvalidMessage", err.Error())
	}
	if req.NotifyTo == nil && req.Mode != ModePull {
		return nil, fault("InvalidMessage", "Subscribe needs NotifyTo (except in pull mode)")
	}
	mode := req.Mode
	if mode == "" {
		mode = ModePush
	}
	switch mode {
	case ModePush, ModePull, ModeWrap:
	default:
		return nil, fault("DeliveryModeRequestedUnavailable", mode)
	}
	flt, err := req.buildFilter()
	if err != nil {
		return nil, fault("FilteringRequestedUnavailable", err.Error())
	}
	expires, err := wse.ResolveExpires(req.Expires, p.Clock())
	if err != nil {
		return nil, fault("UnsupportedExpirationType", err.Error())
	}
	sub := &subscription{notifyTo: req.NotifyTo, endTo: req.EndTo, mode: mode, flt: flt}
	lease := p.store.Create(sub, expires)
	p.attach(lease.ID, sub, expires)

	mgr := wsa.NewEPR(wsa.V200508, p.ManagerAddress)
	mgr.AddReferenceParameter(xmldom.Elem(NS, "SubscriptionId", lease.ID))
	out := soap.New(env.Version)
	resp := xmldom.Elem(NS, "SubscribeResponse",
		mgr.Element(xmldom.N(NS, "SubscriptionManager")))
	if !expires.IsZero() {
		resp.Append(xmldom.Elem(NS, "Expires", xsdt.FormatDateTime(expires)))
	}
	out.AddBody(resp)
	return out, nil
}

func (p *Producer) subscriptionID(env *soap.Envelope) string {
	if h := env.Header(SubscriptionIDName); h != nil {
		return strings.TrimSpace(h.Text())
	}
	return ""
}

func (p *Producer) handleManagement(env *soap.Envelope, body *xmldom.Element) (*soap.Envelope, error) {
	id := p.subscriptionID(env)
	out := soap.New(env.Version)
	switch body.Name.Local {
	case "Renew":
		expires, err := wse.ResolveExpires(body.ChildText(xmldom.N(NS, "Expires")), p.Clock())
		if err != nil {
			return nil, fault("UnsupportedExpirationType", err.Error())
		}
		granted, err := p.store.Renew(id, expires)
		if err != nil {
			return nil, fault("UnknownSubscription", id)
		}
		p.eng.SetDeadline(id, granted)
		out.AddBody(xmldom.Elem(NS, "RenewResponse",
			xmldom.Elem(NS, "Expires", wse.FormatExpires(granted))))
		return out, nil
	case "GetStatus":
		sn, err := p.store.Get(id)
		if err != nil {
			return nil, fault("UnknownSubscription", id)
		}
		status := "Active"
		if sn.Paused {
			status = "Paused"
		}
		out.AddBody(xmldom.Elem(NS, "GetStatusResponse",
			xmldom.Elem(NS, "Expires", wse.FormatExpires(sn.Expires)),
			xmldom.Elem(NS, "Status", status)))
		return out, nil
	case "Unsubscribe":
		// The store's end observer does not fire on an explicit cancel.
		err := p.store.Cancel(id, sublease.EndCancelled)
		p.eng.Unsubscribe(id)
		if err != nil {
			return nil, fault("UnknownSubscription", id)
		}
		out.AddBody(xmldom.NewElement(xmldom.N(NS, "UnsubscribeResponse")))
		return out, nil
	case "PauseSubscription":
		p.eng.Pause(id)
		if err := p.store.Pause(id); err != nil {
			return nil, fault("UnknownSubscription", id)
		}
		out.AddBody(xmldom.NewElement(xmldom.N(NS, "PauseSubscriptionResponse")))
		return out, nil
	case "ResumeSubscription":
		if err := p.store.Resume(id); err != nil {
			return nil, fault("UnknownSubscription", id)
		}
		p.eng.Resume(id)
		out.AddBody(xmldom.NewElement(xmldom.N(NS, "ResumeSubscriptionResponse")))
		return out, nil
	case "Pull":
		if _, err := p.store.Get(id); err != nil {
			return nil, fault("UnknownSubscription", id)
		}
		max := 0 // absent: everything buffered
		if raw := body.ChildText(xmldom.N(NS, "MaxElements")); raw != "" {
			var err error
			if max, err = strconv.Atoi(strings.TrimSpace(raw)); err != nil || max < 0 {
				return nil, fault("InvalidMessage", "MaxElements must be a non-negative integer, got "+strconv.Quote(raw))
			}
		}
		batch, _ := p.eng.Pull(id, max)
		resp := xmldom.NewElement(xmldom.N(NS, "PullResponse"))
		for _, nm := range entries(batch) {
			resp.Append(notifyElement([]*NotificationMessage{nm}))
		}
		out.AddBody(resp)
		return out, nil
	}
	return nil, fault("InvalidMessage", body.Name.Local)
}

func (p *Producer) handleGetCurrentMessage(env *soap.Envelope, body *xmldom.Element) (*soap.Envelope, error) {
	te := body.Child(xmldom.N(NS, "Topic"))
	if te == nil {
		return nil, fault("InvalidMessage", "GetCurrentMessage requires a Topic")
	}
	expr, err := topics.ParseExpression(topics.DialectConcrete,
		strings.TrimSpace(te.Text()), te.ScopeBindings())
	if err != nil {
		return nil, fault("InvalidMessage", err.Error())
	}
	cp, _ := expr.ConcretePath()
	p.mu.Lock()
	msg := p.current[cp.String()]
	p.mu.Unlock()
	if msg == nil {
		return nil, fault("NoCurrentMessageOnTopic", cp.String())
	}
	out := soap.New(env.Version)
	out.AddBody(xmldom.Elem(NS, "GetCurrentMessageResponse", msg.Clone()))
	return out, nil
}

// notifyElement renders the defined wrapped format (the WSN structure the
// converged spec adopts, under the new namespace).
func notifyElement(msgs []*NotificationMessage) *xmldom.Element {
	notify := xmldom.NewElement(xmldom.N(NS, "Notify"))
	for _, m := range msgs {
		nm := xmldom.NewElement(xmldom.N(NS, "NotificationMessage"))
		if !m.Topic.IsZero() {
			te := xmldom.Elem(NS, "Topic", "tns:"+strings.Join(m.Topic.Segments, "/"))
			te.SetAttr(xmldom.N("", "Dialect"), topics.DialectConcrete)
			te.DeclarePrefix("tns", m.Topic.Namespace)
			nm.Append(te)
		}
		nm.Append(xmldom.Elem(NS, "Message", m.Payload))
		notify.Append(nm)
	}
	return notify
}

// ParseNotify reads a wrapped Notify body.
func ParseNotify(body *xmldom.Element) ([]*NotificationMessage, error) {
	if body.Name != xmldom.N(NS, "Notify") {
		return nil, fmt.Errorf("wsen: not a Notify body: %v", body.Name)
	}
	var out []*NotificationMessage
	for _, nm := range body.ChildrenNamed(xmldom.N(NS, "NotificationMessage")) {
		m := &NotificationMessage{}
		if te := nm.Child(xmldom.N(NS, "Topic")); te != nil {
			if p, err := topics.ParsePath(strings.TrimSpace(te.Text()), te.ScopeBindings()); err == nil {
				m.Topic = p
			}
		}
		if msg := nm.Child(xmldom.N(NS, "Message")); msg != nil && len(msg.ChildElements()) > 0 {
			m.Payload = msg.ChildElements()[0]
		}
		out = append(out, m)
	}
	return out, nil
}

// publication is one Publish call as the dispatch engine carries it: the
// message the filters see and where the first failed send is recorded for
// Publish to return.
type publication struct {
	ctx context.Context
	msg filter.Message
	err *error
}

func (pub *publication) report(err error) error {
	if err != nil && *pub.err == nil {
		*pub.err = err
	}
	return err
}

// entries renders kept publications as entries of the wrapped format.
func entries(batch []dispatch.Message) []*NotificationMessage {
	out := make([]*NotificationMessage, len(batch))
	for i, m := range batch {
		pub := m.Payload.(*publication)
		out[i] = &NotificationMessage{Topic: pub.msg.Topic, Payload: pub.msg.Payload}
	}
	return out
}

// keep copies a publication, payload included, for a pull queue or a
// wrapped batch to hold past the Publish call.
func keep(m dispatch.Message) dispatch.Message {
	c := *m.Payload.(*publication)
	c.msg.Payload = c.msg.Payload.Clone()
	return dispatch.Message{Payload: &c}
}

// attach registers a subscription with the dispatch engine, indexed by its
// topic expression. Pull buffers at the engine; push is a wrapped batch of
// one. The prototype never abandons a subscription over failed sends.
func (p *Producer) attach(id string, sub *subscription, expires time.Time) {
	ds := dispatch.Sub{
		ID:       id,
		Selector: dispatch.ForExpression(sub.flt.TopicExpression()),
		Filter: func(m dispatch.Message) (bool, error) {
			return sub.flt.Accepts(m.Payload.(*publication).msg)
		},
		Prepare:      keep,
		FailureLimit: -1,
		Deadline:     expires,
	}
	size := 1
	switch sub.mode {
	case ModePull:
		ds.Mode = dispatch.Pull
	case ModeWrap:
		size = p.WrapBatchSize
	}
	ds.Batch = size
	ds.DeliverCtx = func(ctx context.Context, batch []dispatch.Message) error {
		return p.deliver(ctx, sub, batch, size)
	}
	_ = p.eng.Subscribe(ds)
}

// Publish delivers one event to all matching subscriptions. It returns the
// number of subscriptions that matched and the first failed send.
func (p *Producer) Publish(ctx context.Context, topic topics.Path, payload *xmldom.Element) (int, error) {
	if !topic.IsZero() {
		p.mu.Lock()
		p.current[topic.String()] = payload.Clone()
		p.mu.Unlock()
	}
	var err error
	pub := &publication{ctx: ctx, msg: filter.Message{Topic: topic, Payload: payload, ProducerProperties: p.Properties}, err: &err}
	return p.eng.Dispatch(dispatch.Message{Topic: topic, Payload: pub}), err
}

// deliver sends one batch in the wrapped format: a full one from the
// Publish that filled it, under that call's context and as that call's
// error; a partial one is FlushWrapped's.
func (p *Producer) deliver(ctx context.Context, sub *subscription, batch []dispatch.Message, size int) error {
	msgs := entries(batch)
	if len(batch) < size {
		return p.send(ctx, sub, notifyElement(msgs))
	}
	pub := batch[len(batch)-1].Payload.(*publication)
	return pub.report(p.send(pub.ctx, sub, notifyElement(msgs)))
}

// FlushWrapped forces out partial wrapped batches.
func (p *Producer) FlushWrapped() { p.eng.FlushBatches() }

func (p *Producer) send(ctx context.Context, sub *subscription, body *xmldom.Element) error {
	env := soap.New(soap.V11)
	wsa.DestinationEPR(sub.notifyTo, NS+"/Notify", p.nextMessageID()).Apply(env)
	env.AddBody(body)
	return p.Client.Send(ctx, sub.notifyTo.Address, env)
}

// Shutdown ends every subscription with SubscriptionEnd notices.
func (p *Producer) Shutdown() { p.store.Shutdown() }

func (p *Producer) onLeaseEnd(sn sublease.Snapshot, reason sublease.EndReason) {
	p.eng.Unsubscribe(sn.ID)
	sub, ok := sn.Data.(*subscription)
	if !ok || sub.endTo == nil {
		return
	}
	env := soap.New(soap.V11)
	wsa.DestinationEPR(sub.endTo, NS+"/SubscriptionEnd", p.nextMessageID()).Apply(env)
	env.AddBody(xmldom.Elem(NS, "SubscriptionEnd",
		xmldom.Elem(NS, "SubscriptionId", sn.ID),
		xmldom.Elem(NS, "Status", string(reason))))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = p.Client.Send(ctx, sub.endTo.Address, env)
}

// --- Client side ---

// Handle grips a created subscription.
type Handle struct {
	Manager *wsa.EndpointReference
	ID      string
	Expires time.Time
}

// Subscriber is the client role.
type Subscriber struct{ Client transport.Client }

func (s *Subscriber) call(ctx context.Context, epr *wsa.EndpointReference, action string, body *xmldom.Element) (*soap.Envelope, error) {
	env := soap.New(soap.V11)
	h := wsa.DestinationEPR(epr, action, "")
	h.Apply(env)
	env.AddBody(body)
	return s.Client.Call(ctx, epr.Address, env)
}

// Subscribe creates a subscription.
func (s *Subscriber) Subscribe(ctx context.Context, producerAddr string, req *SubscribeRequest) (*Handle, error) {
	resp, err := s.call(ctx, wsa.NewEPR(wsa.V200508, producerAddr), NS+"/Subscribe", req.Element())
	if err != nil {
		return nil, err
	}
	body := resp.FirstBody()
	mgrEl := body.Child(xmldom.N(NS, "SubscriptionManager"))
	if mgrEl == nil {
		return nil, fmt.Errorf("wsen: response missing SubscriptionManager")
	}
	mgr, err := wsa.ParseEPR(mgrEl)
	if err != nil {
		return nil, err
	}
	h := &Handle{Manager: mgr}
	for _, pp := range mgr.IdentityParameters() {
		if pp.Name == SubscriptionIDName {
			h.ID = strings.TrimSpace(pp.Text())
		}
	}
	if raw := body.ChildText(xmldom.N(NS, "Expires")); raw != "" {
		if t, err := xsdt.ParseDateTime(raw); err == nil {
			h.Expires = t
		}
	}
	return h, nil
}

// Renew extends the subscription.
func (s *Subscriber) Renew(ctx context.Context, h *Handle, expires string) (time.Time, error) {
	body := xmldom.NewElement(xmldom.N(NS, "Renew"))
	if expires != "" {
		body.Append(xmldom.Elem(NS, "Expires", expires))
	}
	resp, err := s.call(ctx, h.Manager, NS+"/Renew", body)
	if err != nil {
		return time.Time{}, err
	}
	raw := resp.FirstBody().ChildText(xmldom.N(NS, "Expires"))
	if raw == "" {
		return time.Time{}, nil
	}
	return xsdt.ParseDateTime(raw)
}

// GetStatus queries expiry and paused state.
func (s *Subscriber) GetStatus(ctx context.Context, h *Handle) (time.Time, string, error) {
	resp, err := s.call(ctx, h.Manager, NS+"/GetStatus", xmldom.NewElement(xmldom.N(NS, "GetStatus")))
	if err != nil {
		return time.Time{}, "", err
	}
	body := resp.FirstBody()
	status := body.ChildText(xmldom.N(NS, "Status"))
	raw := body.ChildText(xmldom.N(NS, "Expires"))
	if raw == "" {
		return time.Time{}, status, nil
	}
	t, err := xsdt.ParseDateTime(raw)
	return t, status, err
}

// Pause suspends delivery.
func (s *Subscriber) Pause(ctx context.Context, h *Handle) error {
	_, err := s.call(ctx, h.Manager, NS+"/PauseSubscription",
		xmldom.NewElement(xmldom.N(NS, "PauseSubscription")))
	return err
}

// Resume re-enables delivery.
func (s *Subscriber) Resume(ctx context.Context, h *Handle) error {
	_, err := s.call(ctx, h.Manager, NS+"/ResumeSubscription",
		xmldom.NewElement(xmldom.N(NS, "ResumeSubscription")))
	return err
}

// Unsubscribe ends the subscription.
func (s *Subscriber) Unsubscribe(ctx context.Context, h *Handle) error {
	_, err := s.call(ctx, h.Manager, NS+"/Unsubscribe",
		xmldom.NewElement(xmldom.N(NS, "Unsubscribe")))
	return err
}

// Pull drains queued notifications from a pull-mode subscription.
func (s *Subscriber) Pull(ctx context.Context, h *Handle, max int) ([]*NotificationMessage, error) {
	body := xmldom.NewElement(xmldom.N(NS, "Pull"))
	if max > 0 {
		body.Append(xmldom.Elem(NS, "MaxElements", strconv.Itoa(max)))
	}
	resp, err := s.call(ctx, h.Manager, NS+"/Pull", body)
	if err != nil {
		return nil, err
	}
	var out []*NotificationMessage
	for _, child := range resp.FirstBody().ChildElements() {
		msgs, err := ParseNotify(child)
		if err == nil {
			out = append(out, msgs...)
		}
	}
	return out, nil
}

// GetCurrentMessage fetches the latest message on a concrete topic.
func (s *Subscriber) GetCurrentMessage(ctx context.Context, producerAddr string, topic topics.Path) (*xmldom.Element, error) {
	te := xmldom.Elem(NS, "Topic", "tns:"+strings.Join(topic.Segments, "/"))
	te.DeclarePrefix("tns", topic.Namespace)
	body := xmldom.Elem(NS, "GetCurrentMessage", te)
	resp, err := s.call(ctx, wsa.NewEPR(wsa.V200508, producerAddr), NS+"/GetCurrentMessage", body)
	if err != nil {
		return nil, err
	}
	b := resp.FirstBody()
	if len(b.ChildElements()) == 0 {
		return nil, fmt.Errorf("wsen: empty GetCurrentMessage response")
	}
	return b.ChildElements()[0], nil
}

// Sink receives converged notifications and end notices.
type Sink struct {
	mu       sync.Mutex
	received []*NotificationMessage
	ends     []string
}

// ServeSOAP implements transport.Handler.
func (k *Sink) ServeSOAP(_ context.Context, env *soap.Envelope) (*soap.Envelope, error) {
	body := env.FirstBody()
	if body == nil {
		return nil, nil
	}
	switch body.Name {
	case xmldom.N(NS, "Notify"):
		msgs, err := ParseNotify(body)
		if err == nil {
			k.mu.Lock()
			k.received = append(k.received, msgs...)
			k.mu.Unlock()
		}
	case xmldom.N(NS, "SubscriptionEnd"):
		k.mu.Lock()
		k.ends = append(k.ends, body.ChildText(xmldom.N(NS, "Status")))
		k.mu.Unlock()
	}
	return nil, nil
}

// Received snapshots deliveries.
func (k *Sink) Received() []*NotificationMessage {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*NotificationMessage, len(k.received))
	copy(out, k.received)
	return out
}

// Count reports deliveries.
func (k *Sink) Count() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.received)
}

// Ends reports end notices.
func (k *Sink) Ends() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]string, len(k.ends))
	copy(out, k.ends)
	return out
}

var _ transport.Handler = (*Sink)(nil)
