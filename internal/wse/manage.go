package wse

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/filter"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmldom"
)

// Manager is the subscription state a WS-Eventing event source and its
// subscription manager act on. HandleSubscribe and HandleManagement own the
// wire side — parsing, the version's rules, faults and replies — so every
// server that implements Manager answers the vocabulary identically over
// its own store.
type Manager interface {
	// Now is the instant duration expirations count from.
	Now() time.Time
	// Grant settles a requested expiry (zero: none requested) under the
	// server's lease policy; Create and Renew take only granted expiries.
	Grant(requested time.Time) time.Time
	// Create registers a subscription to req filtered by flt and returns its
	// id.
	Create(v Version, req *SubscribeRequest, flt filter.All, expires time.Time) string
	// ManagerAddress is the endpoint subscriptions are managed at.
	ManagerAddress() string
	Renew(id string, expires time.Time) (time.Time, error)
	// Expires reports the subscription's expiry (zero: indefinite).
	Expires(id string) (time.Time, error)
	Unsubscribe(id string) error
	// Pull takes up to max (0: all) buffered notifications, oldest first.
	Pull(id string, max int) ([]*xmldom.Element, error)
}

// HandleSubscribe answers a Subscribe request of version v: it checks the
// request, compiles its filter, grants its expiry under m's lease policy and
// has m create the subscription. nextID mints the reply's message id and is
// called only once a reply is certain.
func HandleSubscribe(v Version, m Manager, env *soap.Envelope, nextID func() string) (*soap.Envelope, error) {
	req, reqVer, err := ParseSubscribe(env.FirstBody())
	if err != nil {
		return nil, FaultInvalidMessage(v, err.Error())
	}
	if reqVer != v {
		return nil, FaultInvalidMessage(v, fmt.Sprintf("subscribe uses %v, this endpoint speaks %v", reqVer, v))
	}
	if err := req.Validate(v); err != nil {
		return nil, err
	}
	flt := filter.AcceptAll
	if req.FilterExpr != "" {
		c, err := filter.NewContent(req.FilterDialect, req.FilterExpr, req.FilterNS)
		if err != nil {
			return nil, FaultFilteringNotSupported(v, err.Error())
		}
		flt = filter.All{c}
	}
	requested, err := ResolveExpires(req.Expires, m.Now())
	if err != nil {
		return nil, FaultUnsupportedExpirationType(v)
	}
	expires := m.Grant(requested)
	id := m.Create(v, req, flt, expires)
	resp := &SubscribeResponse{Manager: wsa.NewEPR(v.WSAVersion(), m.ManagerAddress()), ID: id, Expires: FormatExpires(expires)}
	return reply(v, env, resp.Element(v), nextID), nil
}

// HandleManagement answers a Renew, GetStatus, Unsubscribe or Pull request
// of version v addressed to subscription id. nextID mints the reply's
// message id and is called only once a reply is certain.
func HandleManagement(v Version, m Manager, env *soap.Envelope, id string, nextID func() string) (*soap.Envelope, error) {
	body := env.FirstBody()
	if body == nil {
		return nil, FaultInvalidMessage(v, "empty body")
	}
	ns := v.NS()
	unknown := func() error { return FaultInvalidMessage(v, "unknown subscription "+id) }
	var resp *xmldom.Element
	switch body.Name {
	case xmldom.N(ns, "Renew"):
		requested, err := ResolveExpires(body.ChildText(xmldom.N(ns, "Expires")), m.Now())
		if err != nil {
			return nil, FaultUnsupportedExpirationType(v)
		}
		granted, err := m.Renew(id, m.Grant(requested))
		if err != nil {
			return nil, unknown()
		}
		resp = xmldom.Elem(ns, "RenewResponse", xmldom.Elem(ns, "Expires", FormatExpires(granted)))
	case xmldom.N(ns, "GetStatus"):
		if !v.SupportsGetStatus() {
			return nil, FaultInvalidMessage(v, "GetStatus is not defined in "+v.String())
		}
		expires, err := m.Expires(id)
		if err != nil {
			return nil, unknown()
		}
		resp = xmldom.Elem(ns, "GetStatusResponse", xmldom.Elem(ns, "Expires", FormatExpires(expires)))
	case xmldom.N(ns, "Unsubscribe"):
		if err := m.Unsubscribe(id); err != nil {
			return nil, unknown()
		}
		resp = xmldom.NewElement(xmldom.N(ns, "UnsubscribeResponse"))
	case xmldom.N(ns, "Pull"):
		if !v.SupportsPull() {
			return nil, FaultInvalidMessage(v, "Pull is not defined in "+v.String())
		}
		if _, err := m.Expires(id); err != nil { // an unknown id outranks a bad MaxElements
			return nil, unknown()
		}
		max := 0 // absent: everything buffered
		if raw := body.ChildText(xmldom.N(ns, "MaxElements")); raw != "" {
			var err error
			if max, err = strconv.Atoi(strings.TrimSpace(raw)); err != nil || max < 0 {
				return nil, FaultInvalidMessage(v, "MaxElements must be a non-negative integer, got "+strconv.Quote(raw))
			}
		}
		msgs, err := m.Pull(id, max)
		if err != nil {
			return nil, unknown()
		}
		resp = xmldom.NewElement(xmldom.N(ns, "PullResponse"))
		for _, msg := range msgs {
			resp.Append(xmldom.Elem(ns, "Message", msg))
		}
	default:
		return nil, FaultInvalidMessage(v, "unknown operation "+body.Name.Local)
	}
	return reply(v, env, resp, nextID), nil
}

// reply wraps a response body for req, its action named after the body
// element as every WS-Eventing response action is.
func reply(v Version, req *soap.Envelope, body *xmldom.Element, nextID func() string) *soap.Envelope {
	return wsa.Reply(v.WSAVersion(), v.action(body.Name.Local), req, body, nextID)
}
