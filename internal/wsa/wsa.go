// Package wsa implements WS-Addressing at the three versions the compared
// specifications depend on:
//
//   - 2003/03 — used by WS-Notification 1.0 (and early WS-Eventing);
//   - 2004/08 — used by WS-Eventing 8/2004;
//   - 2005/08 — the W3C Recommendation, used by WS-Notification 1.3.
//
// The paper's message-format comparison (§V.4 items 2 and 3) turns on
// exactly these version differences: the namespaces differ, and subscription
// identifiers travel as ReferenceProperties in the old versions but as
// ReferenceParameters in the new ones. The mediation layer converts
// endpoint references between versions with Convert.
package wsa

import (
	"fmt"
	"strings"

	"repro/internal/soap"
	"repro/internal/xmldom"
)

// Version selects a WS-Addressing specification version.
type Version int

const (
	// V200303 is the 2003/03 member submission.
	V200303 Version = iota
	// V200408 is the 2004/08 member submission.
	V200408
	// V200508 is the 2005/08 W3C Recommendation.
	V200508
)

// Namespace URIs per version.
const (
	NS200303 = "http://schemas.xmlsoap.org/ws/2003/03/addressing"
	NS200408 = "http://schemas.xmlsoap.org/ws/2004/08/addressing"
	NS200508 = "http://www.w3.org/2005/08/addressing"
)

func init() {
	xmldom.RegisterPrefix(NS200303, "wsa03")
	xmldom.RegisterPrefix(NS200408, "wsa04")
	xmldom.RegisterPrefix(NS200508, "wsa")
}

// NS returns the namespace URI for the version.
func (v Version) NS() string {
	switch v {
	case V200303:
		return NS200303
	case V200408:
		return NS200408
	default:
		return NS200508
	}
}

// String names the version the way the paper's Table 1 does.
func (v Version) String() string {
	switch v {
	case V200303:
		return "2003/03"
	case V200408:
		return "2004/08"
	default:
		return "2005/08"
	}
}

// Anonymous returns the version's anonymous reply address.
func (v Version) Anonymous() string {
	switch v {
	case V200303:
		return NS200303 + "/role/anonymous"
	case V200408:
		return NS200408 + "/role/anonymous"
	default:
		return NS200508 + "/anonymous"
	}
}

// SupportsReferenceParameters reports whether the version defines the
// ReferenceParameters element (2004/08 introduced it; 2005/08 dropped
// ReferenceProperties entirely).
func (v Version) SupportsReferenceParameters() bool { return v != V200303 }

// SupportsReferenceProperties reports whether the version defines the
// ReferenceProperties element.
func (v Version) SupportsReferenceProperties() bool { return v != V200508 }

// VersionForNS maps a namespace URI back to its version.
func VersionForNS(ns string) (Version, bool) {
	switch ns {
	case NS200303:
		return V200303, true
	case NS200408:
		return V200408, true
	case NS200508:
		return V200508, true
	}
	return 0, false
}

// EndpointReference is a WS-Addressing endpoint reference: the address of a
// Web service endpoint plus opaque reference properties/parameters that
// must be echoed as SOAP headers on messages sent to it. Subscription
// managers in both spec families identify subscriptions this way
// (Table 1, "Return subscriptionId in WSA of Subscription Manager").
type EndpointReference struct {
	Version             Version
	Address             string
	ReferenceProperties []*xmldom.Element
	ReferenceParameters []*xmldom.Element
	// PortType and ServiceName metadata are accepted on parse but not
	// otherwise interpreted; Extra preserves them for round-tripping.
	Extra []*xmldom.Element
}

// NewEPR returns an endpoint reference for the given address.
func NewEPR(v Version, address string) *EndpointReference {
	return &EndpointReference{Version: v, Address: address}
}

// AddReferenceParameter attaches an opaque parameter (or property, for
// versions that only support properties).
func (e *EndpointReference) AddReferenceParameter(el *xmldom.Element) *EndpointReference {
	if e.Version.SupportsReferenceParameters() {
		e.ReferenceParameters = append(e.ReferenceParameters, el)
	} else {
		e.ReferenceProperties = append(e.ReferenceProperties, el)
	}
	return e
}

// IdentityParameters returns every reference property and parameter — the
// headers a sender must echo, and where subscription identifiers live.
func (e *EndpointReference) IdentityParameters() []*xmldom.Element {
	out := make([]*xmldom.Element, 0, len(e.ReferenceProperties)+len(e.ReferenceParameters))
	out = append(out, e.ReferenceProperties...)
	out = append(out, e.ReferenceParameters...)
	return out
}

// Element renders the EPR under the given wrapper element name (for
// example wse:NotifyTo or wsnt:ConsumerReference).
func (e *EndpointReference) Element(wrapper xmldom.Name) *xmldom.Element {
	ns := e.Version.NS()
	el := xmldom.NewElement(wrapper)
	el.Append(xmldom.Elem(ns, "Address", e.Address))
	if len(e.ReferenceProperties) > 0 && e.Version.SupportsReferenceProperties() {
		rp := xmldom.NewElement(xmldom.N(ns, "ReferenceProperties"))
		for _, p := range e.ReferenceProperties {
			rp.Append(p.Clone())
		}
		el.Append(rp)
	}
	if len(e.ReferenceParameters) > 0 && e.Version.SupportsReferenceParameters() {
		rp := xmldom.NewElement(xmldom.N(ns, "ReferenceParameters"))
		for _, p := range e.ReferenceParameters {
			rp.Append(p.Clone())
		}
		el.Append(rp)
	}
	for _, x := range e.Extra {
		el.Append(x.Clone())
	}
	return el
}

// ParseEPR reads an EPR from a wrapper element, auto-detecting the WSA
// version from the namespace of the Address child — this is how the broker
// front door learns which addressing dialect a subscriber speaks.
func ParseEPR(el *xmldom.Element) (*EndpointReference, error) {
	if el == nil {
		return nil, fmt.Errorf("wsa: nil endpoint reference element")
	}
	var ver Version
	var addr *xmldom.Element
	for _, v := range []Version{V200508, V200408, V200303} {
		if a := el.Child(xmldom.N(v.NS(), "Address")); a != nil {
			ver, addr = v, a
			break
		}
	}
	if addr == nil {
		return nil, fmt.Errorf("wsa: endpoint reference %v has no Address child", el.Name)
	}
	epr := &EndpointReference{Version: ver, Address: strings.TrimSpace(addr.Text())}
	ns := ver.NS()
	for _, c := range el.ChildElements() {
		switch c.Name {
		case xmldom.N(ns, "Address"):
			// handled
		case xmldom.N(ns, "ReferenceProperties"):
			for _, p := range c.ChildElements() {
				epr.ReferenceProperties = append(epr.ReferenceProperties, p.Clone())
			}
		case xmldom.N(ns, "ReferenceParameters"):
			for _, p := range c.ChildElements() {
				epr.ReferenceParameters = append(epr.ReferenceParameters, p.Clone())
			}
		default:
			epr.Extra = append(epr.Extra, c.Clone())
		}
	}
	return epr, nil
}

// Convert rewrites the EPR to another WS-Addressing version. Reference
// properties and parameters migrate to whichever container the target
// version supports; this is the core of the subscriptionId mediation the
// paper describes (§V.4 item 1).
func (e *EndpointReference) Convert(to Version) *EndpointReference {
	if e.Version == to {
		return e
	}
	out := &EndpointReference{Version: to, Address: e.Address}
	all := e.IdentityParameters()
	for _, p := range all {
		cp := p.Clone()
		if to.SupportsReferenceParameters() {
			out.ReferenceParameters = append(out.ReferenceParameters, cp)
		} else {
			out.ReferenceProperties = append(out.ReferenceProperties, cp)
		}
	}
	for _, x := range e.Extra {
		out.Extra = append(out.Extra, x.Clone())
	}
	return out
}

// MessageHeaders is the addressing header block of one message.
type MessageHeaders struct {
	Version   Version
	To        string
	Action    string
	MessageID string
	RelatesTo string
	ReplyTo   *EndpointReference
	FaultTo   *EndpointReference
	From      *EndpointReference
	// Echoed holds reference parameters/properties of the destination EPR
	// that are reproduced as top-level SOAP headers, per the WS-Addressing
	// binding. Subscription managers recover subscription ids from here.
	Echoed []*xmldom.Element
}

// Apply adds the addressing headers to a SOAP envelope.
func (h *MessageHeaders) Apply(env *soap.Envelope) {
	ns := h.Version.NS()
	add := func(local, val string) {
		if val != "" {
			env.AddHeader(xmldom.Elem(ns, local, val))
		}
	}
	add("To", h.To)
	add("Action", h.Action)
	add("MessageID", h.MessageID)
	if h.RelatesTo != "" {
		env.AddHeader(xmldom.Elem(ns, "RelatesTo", h.RelatesTo))
	}
	if h.ReplyTo != nil {
		env.AddHeader(h.ReplyTo.Element(xmldom.N(ns, "ReplyTo")))
	}
	if h.FaultTo != nil {
		env.AddHeader(h.FaultTo.Element(xmldom.N(ns, "FaultTo")))
	}
	if h.From != nil {
		env.AddHeader(h.From.Element(xmldom.N(ns, "From")))
	}
	for _, p := range h.Echoed {
		env.AddHeader(p.Clone())
	}
}

// ParseHeaders extracts addressing headers from an envelope, auto-detecting
// the WSA version. Headers that are not WS-Addressing at the detected
// version are collected into Echoed so subscription identifiers survive.
func ParseHeaders(env *soap.Envelope) (*MessageHeaders, bool) {
	var ver Version
	found := false
	for _, v := range []Version{V200508, V200408, V200303} {
		for _, hd := range env.Headers {
			if hd.Name.Space == v.NS() {
				ver, found = v, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		return nil, false
	}
	ns := ver.NS()
	h := &MessageHeaders{Version: ver}
	for _, hd := range env.Headers {
		if hd.Name.Space != ns {
			h.Echoed = append(h.Echoed, hd.Clone())
			continue
		}
		text := strings.TrimSpace(hd.Text())
		switch hd.Name.Local {
		case "To":
			h.To = text
		case "Action":
			h.Action = text
		case "MessageID":
			h.MessageID = text
		case "RelatesTo":
			h.RelatesTo = text
		case "ReplyTo":
			if epr, err := ParseEPR(hd); err == nil {
				h.ReplyTo = epr
			}
		case "FaultTo":
			if epr, err := ParseEPR(hd); err == nil {
				h.FaultTo = epr
			}
		case "From":
			if epr, err := ParseEPR(hd); err == nil {
				h.From = epr
			}
		default:
			h.Echoed = append(h.Echoed, hd.Clone())
		}
	}
	return h, true
}

// DestinationEPR builds the headers for a message addressed to epr: To set
// from the address, identity parameters echoed. Action and MessageID are
// the caller's.
func DestinationEPR(epr *EndpointReference, action, messageID string) *MessageHeaders {
	h := &MessageHeaders{
		Version:   epr.Version,
		To:        epr.Address,
		Action:    action,
		MessageID: messageID,
	}
	for _, p := range epr.IdentityParameters() {
		h.Echoed = append(h.Echoed, p.Clone())
	}
	return h
}

// Reply wraps body as the response to req: version v's headers with the
// response action, a message id from nextID and RelatesTo naming req's
// MessageID when it has one.
func Reply(v Version, action string, req *soap.Envelope, body *xmldom.Element, nextID func() string) *soap.Envelope {
	h := &MessageHeaders{Version: v, Action: action, MessageID: nextID()}
	if in, ok := ParseHeaders(req); ok {
		h.RelatesTo = in.MessageID
	}
	out := soap.New(req.Version)
	h.Apply(out)
	out.AddBody(body)
	return out
}
