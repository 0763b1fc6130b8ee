package core

import (
	"context"
	"errors"
	"strconv"
	"strings"

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
	"repro/internal/xsdt"
)

// FrontHandler returns the broker's front door: Subscribe in either
// specification, published notifications in either specification, and
// GetCurrentMessage. When no separate manager address is configured it
// also accepts subscription management.
func (b *Broker) FrontHandler() transport.Handler {
	return transport.HandlerFunc(func(ctx context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		body := env.FirstBody()
		if body == nil {
			return nil, soap.Faultf(soap.FaultSender, "ws-messenger: empty body")
		}
		// FetchNewer must be intercepted before every fallback: the final
		// arm treats any unrecognised body as a raw publish.
		if body.Name == fetchNewerName {
			return b.handleFetchNewer(env, body)
		}
		if d, ok := mediation.DetectBody(body); ok {
			switch body.Name.Local {
			case "Subscribe":
				return b.handleSubscribe(env, d)
			case "GetCurrentMessage":
				return b.handleGetCurrentMessage(env, d)
			case "Notify":
				return nil, b.handlePublish(env)
			case "Renew", "GetStatus", "Unsubscribe", "Pull",
				"PauseSubscription", "ResumeSubscription":
				if b.cfg.ManagerAddress == b.cfg.Address {
					return b.handleManagement(ctx, env, d)
				}
				return nil, soap.Faultf(soap.FaultSender,
					"ws-messenger: %s must be sent to the subscription manager at %s",
					body.Name.Local, b.cfg.ManagerAddress)
			}
		}
		if wsrf.Handles(env) {
			if b.cfg.ManagerAddress == b.cfg.Address {
				return b.wsrfSvc.ServeSOAP(ctx, env)
			}
			return nil, soap.Faultf(soap.FaultSender,
				"ws-messenger: WSRF management belongs at %s", b.cfg.ManagerAddress)
		}
		// Anything else is treated as a raw published notification — the
		// WS-Eventing publishing style.
		return nil, b.handlePublish(env)
	})
}

// ManagerHandler returns the subscription-management endpoint, accepting
// the management vocabulary of every supported spec version.
func (b *Broker) ManagerHandler() transport.Handler {
	return transport.HandlerFunc(func(ctx context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		body := env.FirstBody()
		if body == nil {
			return nil, soap.Faultf(soap.FaultSender, "ws-messenger: empty body")
		}
		if wsrf.Handles(env) {
			return b.wsrfSvc.ServeSOAP(ctx, env)
		}
		d, ok := mediation.DetectBody(body)
		if !ok {
			return nil, soap.Faultf(soap.FaultSender, "ws-messenger: unknown management request %v", body.Name)
		}
		return b.handleManagement(ctx, env, d)
	})
}

// opDone starts timing one front-door operation and returns its completion
// hook. The spec-version label is supplied at completion because some
// handlers only learn the dialect mid-flight (raw publishes). On an
// uninstrumented broker both halves are no-ops.
func (b *Broker) opDone(op string) func(spec string) {
	rec := b.cfg.Obs
	if rec == nil {
		return func(string) {}
	}
	start := rec.Now()
	return func(spec string) {
		rec.Registry().Histogram("wsm_op_seconds",
			"Front-door SOAP operation handling latency by operation and spec version.",
			nil,
			obs.L("component", rec.Component()), obs.L("op", op), obs.L("spec", spec),
		).Observe(rec.Now().Sub(start))
	}
}

// handlePublish accepts a published notification in either family and
// routes it through the backend.
func (b *Broker) handlePublish(env *soap.Envelope) error {
	done := b.opDone("Notify")
	ns, d, err := mediation.ParseIncoming(env)
	if err != nil {
		done("unknown")
		return soap.Faultf(soap.FaultSender, "ws-messenger: %v", err)
	}
	defer func() { done(d.String()) }()
	// A relay header on a front-door publish is deliberately ignored: only
	// the federation ingest endpoint may republish with preserved
	// provenance, because honoring it here would let any publisher forge
	// dedup state. The front door always stamps fresh provenance.
	for _, n := range ns {
		if err := b.publish(n.Topic, n.Payload, d.Family.String(), nil); err != nil {
			return soap.Faultf(soap.FaultReceiver, "ws-messenger: backend: %v", err)
		}
	}
	return nil
}

// handleSubscribe accepts a subscribe of either family, creates the
// canonical subscription and answers in the requester's dialect.
func (b *Broker) handleSubscribe(env *soap.Envelope, d mediation.Dialect) (*soap.Envelope, error) {
	done := b.opDone("Subscribe")
	defer func() { done(d.String()) }()
	var canon *mediation.Subscribe
	switch d.Family {
	case mediation.FamilyWSE:
		req, v, err := wse.ParseSubscribe(env.FirstBody())
		if err != nil {
			return nil, wse.FaultInvalidMessage(d.WSE, err.Error())
		}
		if req.NotifyTo == nil {
			return nil, wse.FaultInvalidMessage(v, "Subscribe has no NotifyTo")
		}
		mode := req.Mode
		switch mode {
		case "", v.DeliveryModePush():
		case v.DeliveryModePull():
			if !v.SupportsPull() {
				return nil, wse.FaultDeliveryModeUnavailable(v, mode)
			}
		case v.DeliveryModeWrap():
			if !v.SupportsWrapped() {
				return nil, wse.FaultDeliveryModeUnavailable(v, mode)
			}
		default:
			return nil, wse.FaultDeliveryModeUnavailable(v, mode)
		}
		canon = mediation.FromWSE(req, v)
	case mediation.FamilyWSN:
		req, v, err := wsnt.ParseSubscribe(env.FirstBody())
		if err != nil {
			return nil, wsnt.FaultSubscribeCreationFailed(d.WSN, err.Error())
		}
		if req.ConsumerReference == nil {
			return nil, wsnt.FaultSubscribeCreationFailed(v, "missing ConsumerReference")
		}
		if v.RequiresTopic() && req.TopicExpression == "" {
			return nil, wsnt.FaultSubscribeCreationFailed(v, "version 1.0 requires a TopicExpression")
		}
		canon = mediation.FromWSN(req, v)
	default:
		return nil, soap.Faultf(soap.FaultSender, "ws-messenger: unsupported subscribe dialect")
	}

	flt, err := canon.BuildFilter()
	if err != nil {
		if d.Family == mediation.FamilyWSE {
			return nil, wse.FaultFilteringNotSupported(d.WSE, err.Error())
		}
		// WS-BaseNotification distinguishes topic faults from filter
		// faults: an unsupported topic-expression dialect is
		// TopicNotSupportedFault, while an uncompilable expression in a
		// supported dialect is InvalidFilterFault.
		var ude *filter.UnknownDialectError
		if errors.As(err, &ude) && canon.TopicExpr != "" && ude.Dialect == canon.TopicDialect {
			return nil, wsnt.FaultTopicNotSupported(d.WSN, canon.TopicExpr)
		}
		return nil, wsnt.FaultInvalidFilter(d.WSN, err.Error())
	}
	expires, err := b.grantExpiry(canon.Expires, d)
	if err != nil {
		if d.Family == mediation.FamilyWSE {
			return nil, wse.FaultUnsupportedExpirationType(d.WSE)
		}
		return nil, wsnt.FaultUnacceptableTerminationTime(d.WSN, err.Error())
	}
	// Only restoring a snapshot identity can fail; a fresh lease cannot.
	id, _ := b.newSubscription(&subState{canon: canon, flt: flt}, sublease.Snapshot{Expires: expires})

	out := soap.New(env.Version)
	switch d.Family {
	case mediation.FamilyWSE:
		v := d.WSE
		b.applyReply(out, env, v.WSAVersion(), v.ActionSubscribeResponse())
		resp := &wse.SubscribeResponse{
			Manager: wsa.NewEPR(v.WSAVersion(), b.cfg.ManagerAddress),
			ID:      id,
		}
		if !expires.IsZero() {
			resp.Expires = xsdt.FormatDateTime(expires)
		}
		out.AddBody(resp.Element(v))
	case mediation.FamilyWSN:
		v := d.WSN
		b.applyReply(out, env, v.WSAVersion(), v.ActionSubscribeResponse())
		resp := &wsnt.SubscribeResponse{
			SubscriptionReference: wsa.NewEPR(v.WSAVersion(), b.cfg.ManagerAddress),
			ID:                    id,
			CurrentTime:           xsdt.FormatDateTime(b.cfg.Clock()),
		}
		if !expires.IsZero() {
			resp.TerminationTime = xsdt.FormatDateTime(expires)
		}
		out.AddBody(resp.Element(v))
	}
	return out, nil
}

func (b *Broker) applyReply(out, in *soap.Envelope, wv wsa.Version, action string) {
	h := &wsa.MessageHeaders{Version: wv, Action: action, MessageID: b.nextMessageID()}
	if ih, ok := wsa.ParseHeaders(in); ok {
		h.RelatesTo = ih.MessageID
	}
	h.Apply(out)
}

func (b *Broker) handleGetCurrentMessage(env *soap.Envelope, d mediation.Dialect) (*soap.Envelope, error) {
	done := b.opDone("GetCurrentMessage")
	defer func() { done(d.String()) }()
	v := d.WSN
	if d.Family != mediation.FamilyWSN {
		return nil, soap.Faultf(soap.FaultSender, "ws-messenger: GetCurrentMessage is a WS-Notification operation")
	}
	ns := v.NS()
	te := env.FirstBody().Child(xmldom.N(ns, "Topic"))
	if te == nil {
		return nil, wsnt.FaultInvalidFilter(v, "GetCurrentMessage requires a Topic")
	}
	dialect := te.AttrValue(xmldom.N("", "Dialect"))
	if dialect == "" {
		dialect = topics.DialectConcrete
	}
	expr, err := topics.ParseExpression(dialect, strings.TrimSpace(te.Text()), te.ScopeBindings())
	if err != nil {
		return nil, wsnt.FaultInvalidFilter(v, err.Error())
	}
	cp, ok := expr.ConcretePath()
	if !ok {
		return nil, wsnt.FaultInvalidFilter(v, "GetCurrentMessage requires a concrete topic")
	}
	b.mu.Lock()
	msg := b.current[cp.String()]
	b.mu.Unlock()
	if msg == nil {
		return nil, wsnt.FaultNoCurrentMessage(v, cp.String())
	}
	out := soap.New(env.Version)
	b.applyReply(out, env, v.WSAVersion(), v.NS()+"/GetCurrentMessageResponse")
	out.AddBody(xmldom.Elem(ns, "GetCurrentMessageResponse", msg.Clone()))
	return out, nil
}

// subscriptionIDFromHeaders recovers the subscription id from whichever
// reference parameter the requester's spec uses: wse:Identifier (8/2004),
// wsnt SubscriptionId (both WSN versions) or wsrl:ResourceID.
func (b *Broker) subscriptionIDFromHeaders(env *soap.Envelope) string {
	for _, name := range []xmldom.Name{
		wse.V200408.IdentifierName(),
		wsnt.V1_0.SubscriptionIDName(),
		wsnt.V1_3.SubscriptionIDName(),
		wsrf.ResourceIDHeader,
	} {
		if h := env.Header(name); h != nil {
			return strings.TrimSpace(h.Text())
		}
	}
	return ""
}

// subscriptionID also checks the 1/2004 body form.
func (b *Broker) subscriptionID(env *soap.Envelope, d mediation.Dialect) string {
	if id := b.subscriptionIDFromHeaders(env); id != "" {
		return id
	}
	if d.Family == mediation.FamilyWSE && d.WSE == wse.V200401 {
		if body := env.FirstBody(); body != nil {
			if el := body.Child(wse.V200401.IdentifierName()); el != nil {
				return strings.TrimSpace(el.Text())
			}
		}
	}
	return ""
}

func (b *Broker) handleManagement(_ context.Context, env *soap.Envelope, d mediation.Dialect) (*soap.Envelope, error) {
	body := env.FirstBody()
	done := b.opDone(body.Name.Local)
	defer func() { done(d.String()) }()
	id := b.subscriptionID(env, d)
	out := soap.New(env.Version)

	switch d.Family {
	case mediation.FamilyWSE:
		v := d.WSE
		ns := v.NS()
		switch body.Name.Local {
		case "Renew":
			expires, err := b.grantExpiry(body.ChildText(xmldom.N(ns, "Expires")), d)
			if err != nil {
				return nil, wse.FaultUnsupportedExpirationType(v)
			}
			granted, err := b.renewSubscription(id, expires)
			if err != nil {
				return nil, wse.FaultInvalidMessage(v, "unknown subscription "+id)
			}
			b.applyReply(out, env, v.WSAVersion(), v.ActionRenewResponse())
			expText := ""
			if !granted.IsZero() {
				expText = xsdt.FormatDateTime(granted)
			}
			out.AddBody(xmldom.Elem(ns, "RenewResponse", xmldom.Elem(ns, "Expires", expText)))
			return out, nil
		case "GetStatus":
			if !v.SupportsGetStatus() {
				return nil, wse.FaultInvalidMessage(v, "GetStatus is not defined in "+v.String())
			}
			sn, err := b.store.Get(id)
			if err != nil {
				return nil, wse.FaultInvalidMessage(v, "unknown subscription "+id)
			}
			b.applyReply(out, env, v.WSAVersion(), v.ActionGetStatusResponse())
			expText := ""
			if !sn.Expires.IsZero() {
				expText = xsdt.FormatDateTime(sn.Expires)
			}
			out.AddBody(xmldom.Elem(ns, "GetStatusResponse", xmldom.Elem(ns, "Expires", expText)))
			return out, nil
		case "Unsubscribe":
			if err := b.cancelSubscription(id); err != nil {
				return nil, wse.FaultInvalidMessage(v, "unknown subscription "+id)
			}
			b.applyReply(out, env, v.WSAVersion(), v.ActionUnsubscribeResponse())
			out.AddBody(xmldom.NewElement(xmldom.N(ns, "UnsubscribeResponse")))
			return out, nil
		case "Pull":
			if !v.SupportsPull() {
				return nil, wse.FaultInvalidMessage(v, "Pull is not defined in "+v.String())
			}
			if _, err := b.store.Get(id); err != nil {
				return nil, wse.FaultInvalidMessage(v, "unknown subscription "+id)
			}
			max := 0 // absent: everything buffered
			if m := body.ChildText(xmldom.N(ns, "MaxElements")); m != "" {
				var err error
				if max, err = strconv.Atoi(strings.TrimSpace(m)); err != nil || max < 0 {
					return nil, wse.FaultInvalidMessage(v, "MaxElements must be a non-negative integer, got "+strconv.Quote(m))
				}
			}
			batch, err := b.engine.Pull(id, max)
			if err != nil {
				return nil, wse.FaultInvalidMessage(v, "unknown subscription "+id)
			}
			b.applyReply(out, env, v.WSAVersion(), v.ActionPullResponse())
			resp := xmldom.NewElement(xmldom.N(ns, "PullResponse"))
			for _, m := range batch {
				resp.Append(xmldom.Elem(ns, "Message", m.Payload.(fanMsg).payload))
			}
			out.AddBody(resp)
			return out, nil
		}
		return nil, wse.FaultInvalidMessage(v, "unknown operation "+body.Name.Local)

	case mediation.FamilyWSN:
		v := d.WSN
		ns := v.NS()
		switch body.Name.Local {
		case "PauseSubscription", "ResumeSubscription":
			op, failed := b.pauseSubscription, wsnt.FaultPauseFailed
			if body.Name.Local == "ResumeSubscription" {
				op, failed = b.resumeSubscription, wsnt.FaultResumeFailed
			}
			if err := op(id); err != nil {
				// Unknown id → ResourceUnknownFault; an operation that fails
				// for a known subscription (e.g. an expired lease) is 1.3's
				// distinct PauseFailedFault / ResumeFailedFault.
				if v == wsnt.V1_3 && !errors.Is(err, sublease.ErrNotFound) {
					return nil, failed(v, err.Error())
				}
				return nil, wsnt.FaultUnknownSubscription(v, id)
			}
			resp := body.Name.Local + "Response"
			b.applyReply(out, env, v.WSAVersion(), ns+"/"+resp)
			out.AddBody(xmldom.NewElement(xmldom.N(ns, resp)))
			return out, nil
		case "Renew":
			if !v.SupportsNativeManagement() {
				return nil, wsnt.FaultUnsupportedOperation(v, "Renew")
			}
			expires, err := b.grantExpiry(body.ChildText(xmldom.N(ns, "TerminationTime")), d)
			if err != nil {
				return nil, wsnt.FaultUnacceptableTerminationTime(v, err.Error())
			}
			granted, err := b.renewSubscription(id, expires)
			if err != nil {
				return nil, wsnt.FaultUnknownSubscription(v, id)
			}
			b.applyReply(out, env, v.WSAVersion(), ns+"/RenewResponse")
			resp := xmldom.NewElement(xmldom.N(ns, "RenewResponse"))
			if !granted.IsZero() {
				resp.Append(xmldom.Elem(ns, "TerminationTime", xsdt.FormatDateTime(granted)))
			}
			resp.Append(xmldom.Elem(ns, "CurrentTime", xsdt.FormatDateTime(b.cfg.Clock())))
			out.AddBody(resp)
			return out, nil
		case "Unsubscribe":
			if !v.SupportsNativeManagement() {
				return nil, wsnt.FaultUnsupportedOperation(v, "Unsubscribe")
			}
			if err := b.cancelSubscription(id); err != nil {
				return nil, wsnt.FaultUnknownSubscription(v, id)
			}
			b.applyReply(out, env, v.WSAVersion(), ns+"/UnsubscribeResponse")
			out.AddBody(xmldom.NewElement(xmldom.N(ns, "UnsubscribeResponse")))
			return out, nil
		}
		return nil, wsnt.FaultUnsupportedOperation(v, body.Name.Local)
	}
	return nil, soap.Faultf(soap.FaultSender, "ws-messenger: unknown management dialect")
}
