package core

import (
	"context"
	"strings"
	"time"

	"repro/internal/filter"
	"repro/internal/mediation"
	"repro/internal/obs"
	"repro/internal/soap"
	"repro/internal/sublease"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/wsrf"
	"repro/internal/xmldom"
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
					return b.handleManagement(env, d)
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
		return b.handleManagement(env, d)
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

// handleSubscribe hands a Subscribe to its family's handler, which speaks
// the requester's version over the broker's state.
func (b *Broker) handleSubscribe(env *soap.Envelope, d mediation.Dialect) (*soap.Envelope, error) {
	done := b.opDone("Subscribe")
	defer func() { done(d.String()) }()
	switch d.Family {
	case mediation.FamilyWSE:
		return wse.HandleSubscribe(d.WSE, wseState{brokerState{b}}, env, b.nextMessageID)
	case mediation.FamilyWSN:
		return wsnt.HandleSubscribe(d.WSN, wsnState{brokerState{b}}, env, b.nextMessageID)
	}
	return nil, soap.Faultf(soap.FaultSender, "ws-messenger: unsupported subscribe dialect")
}

func (b *Broker) handleGetCurrentMessage(env *soap.Envelope, d mediation.Dialect) (*soap.Envelope, error) {
	done := b.opDone("GetCurrentMessage")
	defer func() { done(d.String()) }()
	if d.Family != mediation.FamilyWSN {
		return nil, soap.Faultf(soap.FaultSender, "ws-messenger: GetCurrentMessage is a WS-Notification operation")
	}
	return wsnt.HandleGetCurrentMessage(d.WSN, wsnState{brokerState{b}}, env, b.nextMessageID)
}

// subscriptionID recovers the subscription id from whichever reference
// parameter the requester's spec uses — wse:Identifier (8/2004), wsnt
// SubscriptionId (both WSN versions) or wsrl:ResourceID — or else from the
// wse:Id body element of 1/2004.
func (b *Broker) subscriptionID(env *soap.Envelope) string {
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
	if body := env.FirstBody(); body != nil {
		if el := body.Child(wse.V200401.IdentifierName()); el != nil {
			return strings.TrimSpace(el.Text())
		}
	}
	return ""
}

// handleManagement hands a management request to its family's handler,
// which speaks the requester's version over the broker's state.
func (b *Broker) handleManagement(env *soap.Envelope, d mediation.Dialect) (*soap.Envelope, error) {
	done := b.opDone(env.FirstBody().Name.Local)
	defer func() { done(d.String()) }()
	id := b.subscriptionID(env)
	switch d.Family {
	case mediation.FamilyWSE:
		return wse.HandleManagement(d.WSE, wseState{brokerState{b}}, env, id, b.nextMessageID)
	case mediation.FamilyWSN:
		return wsnt.HandleManagement(d.WSN, wsnState{brokerState{b}}, env, id, b.nextMessageID)
	}
	return nil, soap.Faultf(soap.FaultSender, "ws-messenger: unknown management dialect")
}

// brokerState is the broker's subscription state — lease store, dispatch
// engine, current messages — as the spec packages' handlers see it.
// wseState and wsnState add each family's Create, whose signatures differ.
type brokerState struct{ *Broker }

type wseState struct{ brokerState }

type wsnState struct{ brokerState }

func (b wseState) Create(v wse.Version, req *wse.SubscribeRequest, flt filter.All, expires time.Time) string {
	return b.create(mediation.FromWSE(req, v), flt, expires)
}

func (b wsnState) Create(v wsnt.Version, req *wsnt.SubscribeRequest, flt filter.All, expires time.Time) (string, error) {
	return b.create(mediation.FromWSN(req, v), flt, expires), nil
}

// create registers a fresh subscription; only restoring a snapshot
// identity can fail, so a fresh lease cannot.
func (b brokerState) create(canon *mediation.Subscribe, flt filter.All, expires time.Time) string {
	id, _ := b.newSubscription(&subState{canon: canon, flt: flt}, sublease.Snapshot{Expires: expires})
	return id
}

func (b brokerState) Now() time.Time                      { return b.cfg.Clock() }
func (b brokerState) Grant(requested time.Time) time.Time { return b.grant(requested) }

func (b brokerState) Renew(id string, expires time.Time) (time.Time, error) {
	return b.renewSubscription(id, expires)
}

func (b brokerState) Expires(id string) (time.Time, error) {
	sn, err := b.store.Get(id)
	return sn.Expires, err
}

func (b brokerState) Unsubscribe(id string) error { return b.cancelSubscription(id) }
func (b brokerState) Pause(id string) error       { return b.pauseSubscription(id) }
func (b brokerState) Resume(id string) error      { return b.resumeSubscription(id) }

func (b brokerState) Pull(id string, max int) ([]*xmldom.Element, error) {
	batch, err := b.engine.Pull(id, max)
	msgs := make([]*xmldom.Element, len(batch))
	for i, m := range batch {
		msgs[i] = m.Payload.(fanMsg).payload
	}
	return msgs, err
}

func (b brokerState) CurrentMessage(topic topics.Path) *xmldom.Element {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.current[topic.String()]
}
