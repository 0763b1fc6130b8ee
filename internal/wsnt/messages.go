package wsnt

import (
	"fmt"
	"strings"

	"repro/internal/filter"
	"repro/internal/soap"
	"repro/internal/topics"
	"repro/internal/wsa"
	"repro/internal/xmldom"
)

// SubscribeRequest is the content of a wsnt:Subscribe message, covering
// both versions' shapes.
type SubscribeRequest struct {
	// ConsumerReference addresses the notification consumer (required).
	ConsumerReference *wsa.EndpointReference
	// TopicExpression/TopicDialect: required in 1.0, optional in 1.3.
	TopicExpression string
	TopicDialect    string
	TopicNS         map[string]string
	// ContentExpr is the content filter: the 1.0 Selector or the 1.3
	// MessageContent child of Filter.
	ContentExpr    string
	ContentDialect string
	ContentNS      map[string]string
	// ProducerPropsExpr filters on the producer's properties (1.3).
	ProducerPropsExpr    string
	ProducerPropsDialect string
	ProducerPropsNS      map[string]string
	// InitialTerminationTime is the raw requested expiry (dateTime always;
	// duration only in 1.3).
	InitialTerminationTime string
	// UseRaw requests raw (unwrapped) notification delivery. The default
	// is the wrapped Notify form; this mirrors 1.0's UseNotify=false.
	UseRaw bool
}

// Element renders the subscribe body per version.
func (r *SubscribeRequest) Element(v Version) *xmldom.Element {
	ns := v.NS()
	sub := xmldom.NewElement(xmldom.N(ns, "Subscribe"))
	if r.ConsumerReference != nil {
		sub.Append(r.ConsumerReference.Convert(v.WSAVersion()).Element(xmldom.N(ns, "ConsumerReference")))
	}
	topicEl := func() *xmldom.Element {
		el := xmldom.Elem(ns, "TopicExpression", r.TopicExpression)
		if r.TopicDialect != "" {
			el.SetAttr(xmldom.N("", "Dialect"), r.TopicDialect)
		}
		for p, uri := range r.TopicNS {
			el.DeclarePrefix(p, uri)
		}
		return el
	}
	if v == V1_0 {
		// 1.0: no Filter wrapper; TopicExpression and Selector are direct
		// children; UseNotify selects raw vs wrapped.
		if r.TopicExpression != "" {
			sub.Append(topicEl())
		}
		if r.ContentExpr != "" {
			sel := xmldom.Elem(ns, "Selector", r.ContentExpr)
			for p, uri := range r.ContentNS {
				sel.DeclarePrefix(p, uri)
			}
			sub.Append(sel)
		}
		if r.UseRaw {
			sub.Append(xmldom.Elem(ns, "UseNotify", "false"))
		}
	} else {
		// 1.3: the unified Filter element (Table 1 "Filter element in
		// Subscription message": adopted from WS-Eventing).
		if r.TopicExpression != "" || r.ContentExpr != "" || r.ProducerPropsExpr != "" {
			f := xmldom.NewElement(xmldom.N(ns, "Filter"))
			if r.TopicExpression != "" {
				f.Append(topicEl())
			}
			if r.ContentExpr != "" {
				mc := xmldom.Elem(ns, "MessageContent", r.ContentExpr)
				if r.ContentDialect != "" {
					mc.SetAttr(xmldom.N("", "Dialect"), r.ContentDialect)
				}
				for p, uri := range r.ContentNS {
					mc.DeclarePrefix(p, uri)
				}
				f.Append(mc)
			}
			if r.ProducerPropsExpr != "" {
				pp := xmldom.Elem(ns, "ProducerProperties", r.ProducerPropsExpr)
				if r.ProducerPropsDialect != "" {
					pp.SetAttr(xmldom.N("", "Dialect"), r.ProducerPropsDialect)
				}
				for p, uri := range r.ProducerPropsNS {
					pp.DeclarePrefix(p, uri)
				}
				f.Append(pp)
			}
			sub.Append(f)
		}
		if r.UseRaw {
			sub.Append(xmldom.Elem(ns, "SubscriptionPolicy",
				xmldom.NewElement(xmldom.N(ns, "UseRaw"))))
		}
	}
	if r.InitialTerminationTime != "" {
		sub.Append(xmldom.Elem(ns, "InitialTerminationTime", r.InitialTerminationTime))
	}
	return sub
}

// ParseSubscribe reads a subscribe body of either version.
func ParseSubscribe(body *xmldom.Element) (*SubscribeRequest, Version, error) {
	var v Version
	switch body.Name {
	case xmldom.N(NS1_0, "Subscribe"):
		v = V1_0
	case xmldom.N(NS1_3, "Subscribe"):
		v = V1_3
	default:
		return nil, 0, fmt.Errorf("wsnt: not a Subscribe body: %v", body.Name)
	}
	ns := v.NS()
	req := &SubscribeRequest{}
	if cr := body.Child(xmldom.N(ns, "ConsumerReference")); cr != nil {
		epr, err := wsa.ParseEPR(cr)
		if err != nil {
			return nil, v, fmt.Errorf("wsnt: bad ConsumerReference: %w", err)
		}
		req.ConsumerReference = epr
	}
	readTopic := func(te *xmldom.Element) {
		req.TopicExpression = strings.TrimSpace(te.Text())
		req.TopicDialect = te.AttrValue(xmldom.N("", "Dialect"))
		req.TopicNS = te.ScopeBindings()
	}
	if v == V1_0 {
		if te := body.Child(xmldom.N(ns, "TopicExpression")); te != nil {
			readTopic(te)
		}
		if sel := body.Child(xmldom.N(ns, "Selector")); sel != nil {
			req.ContentExpr = strings.TrimSpace(sel.Text())
			req.ContentNS = sel.ScopeBindings()
		}
		if un := body.ChildText(xmldom.N(ns, "UseNotify")); un == "false" || un == "0" {
			req.UseRaw = true
		}
	} else {
		if f := body.Child(xmldom.N(ns, "Filter")); f != nil {
			if te := f.Child(xmldom.N(ns, "TopicExpression")); te != nil {
				readTopic(te)
			}
			if mc := f.Child(xmldom.N(ns, "MessageContent")); mc != nil {
				req.ContentExpr = strings.TrimSpace(mc.Text())
				req.ContentDialect = mc.AttrValue(xmldom.N("", "Dialect"))
				req.ContentNS = mc.ScopeBindings()
			}
			if pp := f.Child(xmldom.N(ns, "ProducerProperties")); pp != nil {
				req.ProducerPropsExpr = strings.TrimSpace(pp.Text())
				req.ProducerPropsDialect = pp.AttrValue(xmldom.N("", "Dialect"))
				req.ProducerPropsNS = pp.ScopeBindings()
			}
		}
		if sp := body.Child(xmldom.N(ns, "SubscriptionPolicy")); sp != nil {
			if sp.Child(xmldom.N(ns, "UseRaw")) != nil {
				req.UseRaw = true
			}
		}
	}
	req.InitialTerminationTime = body.ChildText(xmldom.N(ns, "InitialTerminationTime"))
	return req, v, nil
}

// Validate applies version v's rules to a parsed Subscribe: it needs a
// ConsumerReference, and 1.0 also a TopicExpression. The error is the fault
// to answer with.
func (r *SubscribeRequest) Validate(v Version) error {
	if r.ConsumerReference == nil {
		return FaultSubscribeCreationFailed(v, "missing ConsumerReference")
	}
	if v.RequiresTopic() && r.TopicExpression == "" {
		return FaultSubscribeCreationFailed(v, "version 1.0 requires a TopicExpression")
	}
	return nil
}

// BuildFilter compiles the request's filters into a conjunction, using the
// version's dialect defaults (1.0 Selectors have no dialect attribute; the
// implementation evaluates them as XPath, which is why Table 1's "Specify
// XPath dialect" is still No for 1.0 — the spec text never names XPath).
func (r *SubscribeRequest) BuildFilter(v Version) (filter.All, error) {
	var fs filter.All
	if r.TopicExpression != "" {
		dialect := r.TopicDialect
		if dialect == "" {
			dialect = topics.DialectConcrete
		}
		tf, err := filter.NewTopic(dialect, r.TopicExpression, r.TopicNS)
		if err != nil {
			return nil, err
		}
		fs = append(fs, tf)
	}
	if r.ContentExpr != "" {
		cf, err := filter.NewContent(r.ContentDialect, r.ContentExpr, r.ContentNS)
		if err != nil {
			return nil, err
		}
		fs = append(fs, cf)
	}
	if r.ProducerPropsExpr != "" {
		pf, err := filter.NewProducerProperties(r.ProducerPropsDialect, r.ProducerPropsExpr, r.ProducerPropsNS)
		if err != nil {
			return nil, err
		}
		fs = append(fs, pf)
	}
	return fs, nil
}

// SubscribeResponse carries the subscription reference.
type SubscribeResponse struct {
	SubscriptionReference *wsa.EndpointReference
	ID                    string
	CurrentTime           string // 1.3
	TerminationTime       string // 1.3
}

// Element renders the response. The subscription id is embedded in the
// reference as a ReferenceProperty (1.0, WSA 2003/03) or ReferenceParameter
// (1.3, WSA 2005/08) — §V.4 item 1 made concrete.
func (r *SubscribeResponse) Element(v Version) *xmldom.Element {
	ns := v.NS()
	resp := xmldom.NewElement(xmldom.N(ns, "SubscribeResponse"))
	if r.SubscriptionReference != nil {
		ref := r.SubscriptionReference.Convert(v.WSAVersion())
		withID := &wsa.EndpointReference{Version: ref.Version, Address: ref.Address}
		for _, p := range ref.IdentityParameters() {
			withID.AddReferenceParameter(p.Clone())
		}
		withID.AddReferenceParameter(xmldom.Elem(ns, "SubscriptionId", r.ID))
		resp.Append(withID.Element(xmldom.N(ns, "SubscriptionReference")))
	}
	if v == V1_3 {
		if r.CurrentTime != "" {
			resp.Append(xmldom.Elem(ns, "CurrentTime", r.CurrentTime))
		}
		if r.TerminationTime != "" {
			resp.Append(xmldom.Elem(ns, "TerminationTime", r.TerminationTime))
		}
	}
	return resp
}

// ParseSubscribeResponse reads a response of either version.
func ParseSubscribeResponse(body *xmldom.Element) (*SubscribeResponse, Version, error) {
	var v Version
	switch body.Name {
	case xmldom.N(NS1_0, "SubscribeResponse"):
		v = V1_0
	case xmldom.N(NS1_3, "SubscribeResponse"):
		v = V1_3
	default:
		return nil, 0, fmt.Errorf("wsnt: not a SubscribeResponse: %v", body.Name)
	}
	ns := v.NS()
	out := &SubscribeResponse{
		CurrentTime:     body.ChildText(xmldom.N(ns, "CurrentTime")),
		TerminationTime: body.ChildText(xmldom.N(ns, "TerminationTime")),
	}
	srEl := body.Child(xmldom.N(ns, "SubscriptionReference"))
	if srEl == nil {
		return nil, v, fmt.Errorf("wsnt: SubscribeResponse missing SubscriptionReference")
	}
	epr, err := wsa.ParseEPR(srEl)
	if err != nil {
		return nil, v, err
	}
	out.SubscriptionReference = epr
	for _, p := range epr.IdentityParameters() {
		if p.Name == xmldom.N(ns, "SubscriptionId") {
			out.ID = strings.TrimSpace(p.Text())
		}
	}
	return out, v, nil
}

// NotificationMessage is one entry in a wrapped Notify.
type NotificationMessage struct {
	Topic                 topics.Path
	TopicDialect          string
	SubscriptionReference *wsa.EndpointReference // 1.3
	ProducerReference     *wsa.EndpointReference // 1.3
	Payload               *xmldom.Element
}

// NotifyElement renders a wrapped Notify body holding the given messages —
// the format WS-Notification defines and WS-Eventing lacks (§V.4 item 5).
func NotifyElement(v Version, msgs []*NotificationMessage) *xmldom.Element {
	ns := v.NS()
	notify := xmldom.NewElement(xmldom.N(ns, "Notify"))
	for _, m := range msgs {
		nm := xmldom.NewElement(xmldom.N(ns, "NotificationMessage"))
		if v == V1_3 && m.SubscriptionReference != nil {
			nm.Append(m.SubscriptionReference.Convert(v.WSAVersion()).
				Element(xmldom.N(ns, "SubscriptionReference")))
		}
		if !m.Topic.IsZero() {
			te := xmldom.Elem(ns, "Topic", renderTopic(m.Topic))
			dialect := m.TopicDialect
			if dialect == "" {
				dialect = topics.DialectConcrete
			}
			te.SetAttr(xmldom.N("", "Dialect"), dialect)
			te.DeclarePrefix("tns", m.Topic.Namespace)
			nm.Append(te)
		}
		if v == V1_3 && m.ProducerReference != nil {
			nm.Append(m.ProducerReference.Convert(v.WSAVersion()).
				Element(xmldom.N(ns, "ProducerReference")))
		}
		if m.Payload != nil {
			nm.Append(xmldom.Elem(ns, "Message", m.Payload))
		}
		notify.Append(nm)
	}
	return notify
}

// renderTopic writes a concrete topic path with a tns prefix on the root.
func renderTopic(p topics.Path) string {
	if p.Namespace == "" {
		return strings.Join(p.Segments, "/")
	}
	return "tns:" + strings.Join(p.Segments, "/")
}

// ParseNotify reads a wrapped Notify body of either version.
func ParseNotify(body *xmldom.Element) ([]*NotificationMessage, Version, error) {
	var v Version
	switch body.Name {
	case xmldom.N(NS1_0, "Notify"):
		v = V1_0
	case xmldom.N(NS1_3, "Notify"):
		v = V1_3
	default:
		return nil, 0, fmt.Errorf("wsnt: not a Notify body: %v", body.Name)
	}
	ns := v.NS()
	var out []*NotificationMessage
	for _, nm := range body.ChildrenNamed(xmldom.N(ns, "NotificationMessage")) {
		m := &NotificationMessage{}
		if te := nm.Child(xmldom.N(ns, "Topic")); te != nil {
			m.TopicDialect = te.AttrValue(xmldom.N("", "Dialect"))
			if p, err := topics.ParsePath(strings.TrimSpace(te.Text()), te.ScopeBindings()); err == nil {
				m.Topic = p
			}
		}
		if sr := nm.Child(xmldom.N(ns, "SubscriptionReference")); sr != nil {
			if epr, err := wsa.ParseEPR(sr); err == nil {
				m.SubscriptionReference = epr
			}
		}
		if pr := nm.Child(xmldom.N(ns, "ProducerReference")); pr != nil {
			if epr, err := wsa.ParseEPR(pr); err == nil {
				m.ProducerReference = epr
			}
		}
		if msg := nm.Child(xmldom.N(ns, "Message")); msg != nil && len(msg.ChildElements()) > 0 {
			m.Payload = msg.ChildElements()[0]
		}
		out = append(out, m)
	}
	return out, v, nil
}

// --- Fault vocabulary ---

// FaultTopicNotSupported reports a subscribe against an unknown topic.
func FaultTopicNotSupported(v Version, expr string) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "no supported topic matches %q", expr)
	f.Subcode = xmldom.N(v.NS(), "TopicNotSupportedFault")
	return f
}

// FaultInvalidFilter reports an uncompilable or unsupported filter.
func FaultInvalidFilter(v Version, why string) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "invalid filter: %s", why)
	f.Subcode = xmldom.N(v.NS(), "InvalidFilterFault")
	return f
}

// FaultUnacceptableTerminationTime reports a rejected expiry request.
func FaultUnacceptableTerminationTime(v Version, why string) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "unacceptable initial termination time: %s", why)
	f.Subcode = xmldom.N(v.NS(), "UnacceptableInitialTerminationTimeFault")
	return f
}

// FaultSubscribeCreationFailed covers malformed subscribes.
func FaultSubscribeCreationFailed(v Version, why string) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "subscribe creation failed: %s", why)
	f.Subcode = xmldom.N(v.NS(), "SubscribeCreationFailedFault")
	return f
}

// FaultUnknownSubscription covers management of a missing subscription.
func FaultUnknownSubscription(v Version, id string) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "unknown subscription %q", id)
	f.Subcode = xmldom.N(v.NS(), "ResourceUnknownFault")
	return f
}

// FaultPauseFailed reports a PauseSubscription the producer could not
// honour for a subscription it knows about — the spec's PauseFailedFault,
// distinct from ResourceUnknownFault, which means the subscription id
// itself is unknown. WS-BaseNotification 1.3 defines the subcode; callers
// keep ResourceUnknownFault for missing ids.
func FaultPauseFailed(v Version, why string) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "unable to pause subscription: %s", why)
	f.Subcode = xmldom.N(v.NS(), "PauseFailedFault")
	return f
}

// FaultResumeFailed is PauseFailedFault's counterpart for
// ResumeSubscription.
func FaultResumeFailed(v Version, why string) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "unable to resume subscription: %s", why)
	f.Subcode = xmldom.N(v.NS(), "ResumeFailedFault")
	return f
}

// FaultUnsupportedOperation reports an operation the version does not
// define (e.g. wsnt:Renew sent to a 1.0 producer).
func FaultUnsupportedOperation(v Version, op string) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "operation %s is not defined in %s", op, v.String())
	f.Subcode = xmldom.N(v.NS(), "UnsupportedOperationFault")
	return f
}

// FaultNoCurrentMessage reports GetCurrentMessage on a quiet topic.
func FaultNoCurrentMessage(v Version, topic string) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "no current message on topic %q", topic)
	f.Subcode = xmldom.N(v.NS(), "NoCurrentMessageOnTopicFault")
	return f
}
