package wsnt

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/filter"
	"repro/internal/soap"
	"repro/internal/sublease"
	"repro/internal/topics"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsrf"
	"repro/internal/xmldom"
	"repro/internal/xsdt"
)

// Manager is the subscription state a WS-BaseNotification subscription
// manager and producer act on. HandleSubscribe, HandleManagement and
// HandleGetCurrentMessage own the wire side — parsing, the version's
// operation set, faults and replies — so every server that implements
// Manager answers the vocabulary identically over its own store.
type Manager interface {
	// Now is the instant durations count from and CurrentTime reports.
	Now() time.Time
	// Grant settles a requested expiry (zero: none requested) under the
	// server's lease policy; Create and Renew take only granted expiries.
	Grant(requested time.Time) time.Time
	// Create registers a subscription to req filtered by flt and returns its
	// id, or the fault that refuses it.
	Create(v Version, req *SubscribeRequest, flt filter.All, expires time.Time) (string, error)
	// ManagerAddress is the endpoint subscriptions are managed at.
	ManagerAddress() string
	Renew(id string, expires time.Time) (time.Time, error)
	Unsubscribe(id string) error
	// Pause and Resume fail with sublease.ErrNotFound for an unknown id;
	// any other error is a known subscription that cannot comply.
	Pause(id string) error
	Resume(id string) error
	// CurrentMessage is the last message published on topic, nil if none.
	CurrentMessage(topic topics.Path) *xmldom.Element
}

// ResolveTerminationTime interprets a raw InitialTerminationTime or Renew
// TerminationTime at now; empty means none requested. 1.3 took the
// xsd:duration form from WS-Eventing, 1.0 accepts absolute dateTimes only
// (Table 1, "Specify subscription expiration using duration").
func (v Version) ResolveTerminationTime(raw string, now time.Time) (time.Time, error) {
	if !v.SupportsDurationExpiry() && xsdt.LooksLikeDuration(raw) {
		return time.Time{}, errors.New("duration expirations require WS-Notification 1.3")
	}
	return wse.ResolveExpires(raw, now)
}

// HandleSubscribe answers a Subscribe request of version v: it checks the
// request, compiles its filters, grants its initial termination time under
// m's lease policy and has m create the subscription. nextID mints the
// reply's message id and is called only once a reply is certain.
func HandleSubscribe(v Version, m Manager, env *soap.Envelope, nextID func() string) (*soap.Envelope, error) {
	req, reqVer, err := ParseSubscribe(env.FirstBody())
	if err != nil {
		return nil, FaultSubscribeCreationFailed(v, err.Error())
	}
	if reqVer != v {
		return nil, FaultSubscribeCreationFailed(v, fmt.Sprintf("subscribe uses %v, this endpoint speaks %v", reqVer, v))
	}
	if err := req.Validate(v); err != nil {
		return nil, err
	}
	flt, err := req.BuildFilter(v)
	if err != nil {
		// An unsupported topic-expression dialect is TopicNotSupportedFault,
		// any other filter error InvalidFilterFault.
		var ude *filter.UnknownDialectError
		if errors.As(err, &ude) && req.TopicExpression != "" && ude.Dialect == req.TopicDialect {
			return nil, FaultTopicNotSupported(v, req.TopicExpression)
		}
		return nil, FaultInvalidFilter(v, err.Error())
	}
	now := m.Now()
	requested, err := v.ResolveTerminationTime(req.InitialTerminationTime, now)
	if err != nil {
		return nil, FaultUnacceptableTerminationTime(v, err.Error())
	}
	expires := m.Grant(requested)
	id, err := m.Create(v, req, flt, expires)
	if err != nil {
		return nil, err
	}
	resp := &SubscribeResponse{SubscriptionReference: wsa.NewEPR(v.WSAVersion(), m.ManagerAddress()), ID: id,
		CurrentTime: xsdt.FormatDateTime(now), TerminationTime: wse.FormatExpires(expires)}
	return reply(v, env, resp.Element(v), nextID), nil
}

// HandleManagement answers a PauseSubscription, ResumeSubscription, Renew
// or Unsubscribe request of version v addressed to subscription id. nextID
// mints the reply's message id and is called only once a reply is certain.
func HandleManagement(v Version, m Manager, env *soap.Envelope, id string, nextID func() string) (*soap.Envelope, error) {
	body := env.FirstBody()
	if body == nil {
		return nil, FaultSubscribeCreationFailed(v, "empty body")
	}
	ns := v.NS()
	var resp *xmldom.Element
	switch body.Name {
	case xmldom.N(ns, "PauseSubscription"), xmldom.N(ns, "ResumeSubscription"):
		op, failed := m.Pause, FaultPauseFailed
		if body.Name.Local == "ResumeSubscription" {
			op, failed = m.Resume, FaultResumeFailed
		}
		if err := op(id); err != nil {
			// An unknown id is ResourceUnknownFault; an operation that fails
			// for a known subscription (e.g. an expired lease) is 1.3's
			// distinct PauseFailedFault / ResumeFailedFault.
			if v == V1_3 && !errors.Is(err, sublease.ErrNotFound) {
				return nil, failed(v, err.Error())
			}
			return nil, FaultUnknownSubscription(v, id)
		}
		resp = xmldom.NewElement(xmldom.N(ns, body.Name.Local+"Response"))
	case xmldom.N(ns, "Renew"):
		if !v.SupportsNativeManagement() {
			// Table 2: 1.0 renews through WSRF SetTerminationTime only.
			return nil, FaultUnsupportedOperation(v, "Renew")
		}
		requested, err := v.ResolveTerminationTime(body.ChildText(xmldom.N(ns, "TerminationTime")), m.Now())
		if err != nil {
			return nil, FaultUnacceptableTerminationTime(v, err.Error())
		}
		granted, err := m.Renew(id, m.Grant(requested))
		if err != nil {
			return nil, FaultUnknownSubscription(v, id)
		}
		resp = xmldom.NewElement(xmldom.N(ns, "RenewResponse"))
		if !granted.IsZero() {
			resp.Append(xmldom.Elem(ns, "TerminationTime", xsdt.FormatDateTime(granted)))
		}
		resp.Append(xmldom.Elem(ns, "CurrentTime", xsdt.FormatDateTime(m.Now())))
	case xmldom.N(ns, "Unsubscribe"):
		if !v.SupportsNativeManagement() {
			// Table 2: 1.0 unsubscribes through WSRF Destroy only.
			return nil, FaultUnsupportedOperation(v, "Unsubscribe")
		}
		if err := m.Unsubscribe(id); err != nil {
			return nil, FaultUnknownSubscription(v, id)
		}
		resp = xmldom.NewElement(xmldom.N(ns, "UnsubscribeResponse"))
	default:
		return nil, FaultUnsupportedOperation(v, body.Name.Local)
	}
	return reply(v, env, resp, nextID), nil
}

// HandleGetCurrentMessage answers a GetCurrentMessage request of version v:
// the last message published on the request's concrete topic. Every way
// the Topic can fail to name one — absent, unparseable, not concrete — is
// InvalidFilterFault.
func HandleGetCurrentMessage(v Version, m Manager, env *soap.Envelope, nextID func() string) (*soap.Envelope, error) {
	ns := v.NS()
	te := env.FirstBody().Child(xmldom.N(ns, "Topic"))
	if te == nil {
		return nil, FaultInvalidFilter(v, "GetCurrentMessage requires a Topic")
	}
	dialect := te.AttrValue(xmldom.N("", "Dialect"))
	if dialect == "" {
		dialect = topics.DialectConcrete
	}
	expr, err := topics.ParseExpression(dialect, strings.TrimSpace(te.Text()), te.ScopeBindings())
	if err != nil {
		return nil, FaultInvalidFilter(v, err.Error())
	}
	cp, ok := expr.ConcretePath()
	if !ok {
		return nil, FaultInvalidFilter(v, "GetCurrentMessage requires a concrete topic")
	}
	msg := m.CurrentMessage(cp)
	if msg == nil {
		return nil, FaultNoCurrentMessage(v, cp.String())
	}
	return reply(v, env, xmldom.Elem(ns, "GetCurrentMessageResponse", msg.Clone()), nextID), nil
}

// SubscriptionState is a subscription as its WS-Resource properties show
// it (1.0 reads status through WSRF, Table 2): its lease, its filters and
// its consumer.
type SubscriptionState struct {
	sublease.Snapshot
	Filter   filter.All
	Consumer *wsa.EndpointReference
}

// SubscriptionResource serves st as a WS-Resource managed through m: its
// property document, SetTerminationTime as a Renew (so m's expiry policy
// applies) and Destroy as an Unsubscribe.
func SubscriptionResource(m Manager, st SubscriptionState) wsrf.Resource { return subResource{m, st} }

type subResource struct {
	m  Manager
	st SubscriptionState
}

func (r subResource) PropertyDocument() (*xmldom.Element, error) {
	doc := xmldom.NewElement(xmldom.N(NS1_0, "SubscriptionProperties"))
	doc.Append(xmldom.Elem(NS1_0, "CreationTime", xsdt.FormatDateTime(r.st.CreatedAt)))
	if !r.st.Expires.IsZero() {
		doc.Append(xmldom.Elem(NS1_0, "TerminationTime", xsdt.FormatDateTime(r.st.Expires)))
	}
	if e := r.st.Filter.TopicExpression(); e != nil {
		doc.Append(xmldom.Elem(NS1_0, "TopicExpression", e.Raw()))
	}
	status := "Active"
	if r.st.Paused {
		status = "Paused"
	}
	doc.Append(xmldom.Elem(NS1_0, "Status", status))
	if r.st.Consumer != nil {
		doc.Append(xmldom.Elem(NS1_0, "ConsumerReference", r.st.Consumer.Address))
	}
	return doc, nil
}

func (r subResource) SetTerminationTime(t time.Time) (time.Time, error) {
	return r.m.Renew(r.st.ID, r.m.Grant(t))
}
func (r subResource) Destroy() error { return r.m.Unsubscribe(r.st.ID) }

// reply wraps a response body for req, its action named after the body
// element as every WS-BaseNotification response action is.
func reply(v Version, req *soap.Envelope, body *xmldom.Element, nextID func() string) *soap.Envelope {
	return wsa.Reply(v.WSAVersion(), v.action(body.Name.Local), req, body, nextID)
}
