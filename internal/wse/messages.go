package wse

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmldom"
	"repro/internal/xsdt"
)

// SubscribeRequest is the content of a wse:Subscribe message.
type SubscribeRequest struct {
	// NotifyTo is the event sink's endpoint reference (required).
	NotifyTo *wsa.EndpointReference
	// EndTo, when set, receives the SubscriptionEnd message on unexpected
	// termination; when absent no notice is generated (§V.2 of the paper).
	EndTo *wsa.EndpointReference
	// Mode is the delivery mode URI; empty selects the default push mode.
	Mode string
	// Expires is the raw requested expiration: an xsd:dateTime, an
	// xsd:duration, or empty for "source chooses".
	Expires string
	// FilterDialect and FilterExpr carry the at-most-one filter; the empty
	// dialect means the default XPath 1.0 dialect.
	FilterDialect string
	FilterExpr    string
	// FilterNS are prefix bindings for QNames inside FilterExpr; they are
	// serialised as xmlns declarations on the Filter element.
	FilterNS map[string]string
}

// Element renders the subscribe body for the version. The two versions
// shape the message differently: 1/2004 places NotifyTo directly in the
// Subscribe element (push only); 8/2004 wraps it in the Delivery extension
// point with an optional Mode attribute.
func (r *SubscribeRequest) Element(v Version) *xmldom.Element {
	ns := v.NS()
	sub := xmldom.NewElement(xmldom.N(ns, "Subscribe"))
	if r.EndTo != nil {
		sub.Append(r.EndTo.Convert(v.WSAVersion()).Element(xmldom.N(ns, "EndTo")))
	}
	if v == V200401 {
		if r.NotifyTo != nil {
			sub.Append(r.NotifyTo.Convert(v.WSAVersion()).Element(xmldom.N(ns, "NotifyTo")))
		}
	} else {
		delivery := xmldom.NewElement(xmldom.N(ns, "Delivery"))
		if r.Mode != "" {
			delivery.SetAttr(xmldom.N("", "Mode"), r.Mode)
		}
		if r.NotifyTo != nil {
			delivery.Append(r.NotifyTo.Convert(v.WSAVersion()).Element(xmldom.N(ns, "NotifyTo")))
		}
		sub.Append(delivery)
	}
	if r.Expires != "" {
		sub.Append(xmldom.Elem(ns, "Expires", r.Expires))
	}
	if r.FilterExpr != "" {
		f := xmldom.Elem(ns, "Filter", r.FilterExpr)
		if r.FilterDialect != "" {
			f.SetAttr(xmldom.N("", "Dialect"), r.FilterDialect)
		}
		for p, uri := range r.FilterNS {
			f.DeclarePrefix(p, uri)
		}
		sub.Append(f)
	}
	return sub
}

// ParseSubscribe reads a subscribe body of either version, returning the
// request and the version it was expressed in.
func ParseSubscribe(body *xmldom.Element) (*SubscribeRequest, Version, error) {
	var v Version
	switch body.Name {
	case xmldom.N(NS200401, "Subscribe"):
		v = V200401
	case xmldom.N(NS200408, "Subscribe"):
		v = V200408
	default:
		return nil, 0, fmt.Errorf("wse: not a Subscribe body: %v", body.Name)
	}
	ns := v.NS()
	req := &SubscribeRequest{}
	if endTo := body.Child(xmldom.N(ns, "EndTo")); endTo != nil {
		epr, err := wsa.ParseEPR(endTo)
		if err != nil {
			return nil, v, fmt.Errorf("wse: bad EndTo: %w", err)
		}
		req.EndTo = epr
	}
	notifyEl := body.Child(xmldom.N(ns, "NotifyTo"))
	if v == V200408 {
		if d := body.Child(xmldom.N(ns, "Delivery")); d != nil {
			req.Mode = d.AttrValue(xmldom.N("", "Mode"))
			notifyEl = d.Child(xmldom.N(ns, "NotifyTo"))
		}
	}
	if notifyEl != nil {
		epr, err := wsa.ParseEPR(notifyEl)
		if err != nil {
			return nil, v, fmt.Errorf("wse: bad NotifyTo: %w", err)
		}
		req.NotifyTo = epr
	}
	req.Expires = body.ChildText(xmldom.N(ns, "Expires"))
	if f := body.Child(xmldom.N(ns, "Filter")); f != nil {
		req.FilterDialect = f.AttrValue(xmldom.N("", "Dialect"))
		req.FilterExpr = strings.TrimSpace(f.Text())
		req.FilterNS = f.ScopeBindings()
	}
	return req, v, nil
}

// Validate applies version v's rules to a parsed Subscribe: it needs a
// NotifyTo, and only push exists before 8/2004 added pull and wrapped
// delivery. The error is the fault to answer with.
func (r *SubscribeRequest) Validate(v Version) error {
	if r.NotifyTo == nil {
		return FaultInvalidMessage(v, "Subscribe has no NotifyTo")
	}
	switch {
	case r.Mode == "" || r.Mode == v.DeliveryModePush():
	case r.Mode == v.DeliveryModePull() && v.SupportsPull():
	case r.Mode == v.DeliveryModeWrap() && v.SupportsWrapped():
	default:
		return FaultDeliveryModeUnavailable(v, r.Mode)
	}
	return nil
}

// SubscribeResponse is the granted subscription: where to manage it, its
// identifier, and the granted expiration.
type SubscribeResponse struct {
	// Manager addresses the subscription manager. In 8/2004 the
	// subscription id is embedded as a wse:Identifier reference parameter;
	// in 1/2004 the manager is the event source itself and the id is the
	// separate ID field.
	Manager *wsa.EndpointReference
	ID      string
	Expires string
}

// Element renders the response body for the version. This is where the
// convergence item 2 of §IV becomes visible on the wire.
func (r *SubscribeResponse) Element(v Version) *xmldom.Element {
	ns := v.NS()
	resp := xmldom.NewElement(xmldom.N(ns, "SubscribeResponse"))
	if v == V200401 {
		resp.Append(xmldom.Elem(ns, "Id", r.ID))
	} else if r.Manager != nil {
		resp.Append(managerElement(r.Manager, r.ID))
	}
	if r.Expires != "" {
		resp.Append(xmldom.Elem(ns, "Expires", r.Expires))
	}
	return resp
}

// ParseSubscribeResponse reads a response of either version.
func ParseSubscribeResponse(body *xmldom.Element) (*SubscribeResponse, Version, error) {
	var v Version
	switch body.Name {
	case xmldom.N(NS200401, "SubscribeResponse"):
		v = V200401
	case xmldom.N(NS200408, "SubscribeResponse"):
		v = V200408
	default:
		return nil, 0, fmt.Errorf("wse: not a SubscribeResponse: %v", body.Name)
	}
	ns := v.NS()
	out := &SubscribeResponse{Expires: body.ChildText(xmldom.N(ns, "Expires"))}
	if v == V200401 {
		out.ID = body.ChildText(xmldom.N(ns, "Id"))
		return out, v, nil
	}
	mgrEl := body.Child(xmldom.N(ns, "SubscriptionManager"))
	if mgrEl == nil {
		return nil, v, fmt.Errorf("wse: SubscribeResponse missing SubscriptionManager")
	}
	epr, err := wsa.ParseEPR(mgrEl)
	if err != nil {
		return nil, v, err
	}
	out.Manager, out.ID = epr, identifier(epr)
	return out, v, nil
}

// managerElement renders an 8/2004 SubscriptionManager EPR carrying the
// subscription id as its wse:Identifier reference parameter — convergence
// item 2 of §IV on the wire.
func managerElement(mgr *wsa.EndpointReference, id string) *xmldom.Element {
	mgr = mgr.Convert(wsa.V200408)
	withID := &wsa.EndpointReference{Version: mgr.Version, Address: mgr.Address}
	for _, p := range mgr.IdentityParameters() {
		withID.AddReferenceParameter(p.Clone())
	}
	withID.AddReferenceParameter(xmldom.Elem(NS200408, "Identifier", id))
	return withID.Element(xmldom.N(NS200408, "SubscriptionManager"))
}

// identifier recovers the subscription id from a SubscriptionManager EPR.
func identifier(epr *wsa.EndpointReference) (id string) {
	for _, p := range epr.IdentityParameters() {
		if p.Name == V200408.IdentifierName() {
			id = strings.TrimSpace(p.Text())
		}
	}
	return id
}

// NewRenew builds a renew body; expires may be empty to let the source
// choose.
func NewRenew(v Version, id, expires string) *xmldom.Element {
	ns := v.NS()
	el := xmldom.NewElement(xmldom.N(ns, "Renew"))
	if v == V200401 {
		el.Append(xmldom.Elem(ns, "Id", id))
	}
	if expires != "" {
		el.Append(xmldom.Elem(ns, "Expires", expires))
	}
	return el
}

// NewGetStatus builds a GetStatus body (8/2004 only; the caller gates).
func NewGetStatus(v Version) *xmldom.Element {
	return xmldom.NewElement(xmldom.N(v.NS(), "GetStatus"))
}

// NewUnsubscribe builds an unsubscribe body.
func NewUnsubscribe(v Version, id string) *xmldom.Element {
	ns := v.NS()
	el := xmldom.NewElement(xmldom.N(ns, "Unsubscribe"))
	if v == V200401 {
		el.Append(xmldom.Elem(ns, "Id", id))
	}
	return el
}

// NewPull builds a pull-retrieval body (8/2004 pull mode). Our concrete
// encoding of the spec's abstract pull mode: the sink asks the manager for
// up to max queued notifications.
func NewPull(v Version, max int) *xmldom.Element {
	el := xmldom.NewElement(xmldom.N(v.NS(), "Pull"))
	if max > 0 {
		el.Append(xmldom.Elem(v.NS(), "MaxElements", strconv.Itoa(max)))
	}
	return el
}

// SubscriptionEnd is the unexpected-termination notice.
type SubscriptionEnd struct {
	Manager *wsa.EndpointReference // 8/2004 identifies the subscription by manager EPR
	ID      string                 // 1/2004 uses the bare id
	Status  string                 // EndDeliveryFailure, EndSourceShuttingDown, EndSourceCanceling
	Reason  string
}

// Element renders the SubscriptionEnd body.
func (s *SubscriptionEnd) Element(v Version) *xmldom.Element {
	ns := v.NS()
	el := xmldom.NewElement(xmldom.N(ns, "SubscriptionEnd"))
	if v == V200401 {
		el.Append(xmldom.Elem(ns, "Id", s.ID))
	} else if s.Manager != nil {
		el.Append(managerElement(s.Manager, s.ID))
	}
	el.Append(xmldom.Elem(ns, "Status", v.NS()+"/"+s.Status))
	if s.Reason != "" {
		el.Append(xmldom.Elem(ns, "Reason", s.Reason))
	}
	return el
}

// ParseSubscriptionEnd reads a SubscriptionEnd body of either version.
func ParseSubscriptionEnd(body *xmldom.Element) (*SubscriptionEnd, Version, error) {
	var v Version
	switch body.Name {
	case xmldom.N(NS200401, "SubscriptionEnd"):
		v = V200401
	case xmldom.N(NS200408, "SubscriptionEnd"):
		v = V200408
	default:
		return nil, 0, fmt.Errorf("wse: not a SubscriptionEnd: %v", body.Name)
	}
	ns := v.NS()
	out := &SubscriptionEnd{Reason: body.ChildText(xmldom.N(ns, "Reason"))}
	status := body.ChildText(xmldom.N(ns, "Status"))
	if i := strings.LastIndex(status, "/"); i >= 0 {
		status = status[i+1:]
	}
	out.Status = status
	if v == V200401 {
		out.ID = body.ChildText(xmldom.N(ns, "Id"))
		return out, v, nil
	}
	if mgrEl := body.Child(xmldom.N(ns, "SubscriptionManager")); mgrEl != nil {
		epr, err := wsa.ParseEPR(mgrEl)
		if err != nil {
			return nil, v, err
		}
		out.Manager, out.ID = epr, identifier(epr)
	}
	return out, v, nil
}

// ResolveExpires interprets a raw expiration string at a reference instant:
// duration forms are added to now, dateTime forms parse directly, and the
// empty string yields the zero time ("source chooses" / indefinite).
func ResolveExpires(raw string, now time.Time) (time.Time, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return time.Time{}, nil
	}
	if xsdt.LooksLikeDuration(raw) {
		d, err := xsdt.ParseDuration(raw)
		if err != nil {
			return time.Time{}, err
		}
		return d.AddTo(now), nil
	}
	return xsdt.ParseDateTime(raw)
}

// FormatExpires renders a granted expiration: an xsd:dateTime, or empty
// for an indefinite subscription.
func FormatExpires(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return xsdt.FormatDateTime(t)
}

// FaultUnsupportedExpirationType et al. are the WS-Eventing fault builders.
func FaultUnsupportedExpirationType(v Version) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "the expiration time requested is not supported")
	f.Subcode = xmldom.N(v.NS(), "UnsupportedExpirationType")
	return f
}

// FaultDeliveryModeUnavailable signals an unsupported delivery mode.
func FaultDeliveryModeUnavailable(v Version, mode string) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "the requested delivery mode %q is not supported", mode)
	f.Subcode = xmldom.N(v.NS(), "DeliveryModeRequestedUnavailable")
	return f
}

// FaultFilteringNotSupported signals an unusable filter.
func FaultFilteringNotSupported(v Version, why string) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "filtering not supported: %s", why)
	f.Subcode = xmldom.N(v.NS(), "FilteringRequestedUnavailable")
	return f
}

// FaultInvalidMessage covers malformed or unknown-subscription requests.
func FaultInvalidMessage(v Version, why string) *soap.Fault {
	f := soap.Faultf(soap.FaultSender, "invalid message: %s", why)
	f.Subcode = xmldom.N(v.NS(), "InvalidMessage")
	return f
}
