// Package wse implements the Web Services Eventing (WS-Eventing)
// specification at its two released versions:
//
//   - 1/2004 (January 7, 2004, Microsoft-led): the event source is its own
//     subscription manager, the subscription id is a separate element in
//     the subscribe response, and only push delivery exists.
//   - 8/2004 (August 2004, with IBM/Sun/CA): the subscription manager is a
//     separate addressable entity, subscription ids travel as
//     WS-Addressing reference parameters, GetStatus is added, and the
//     delivery extension point admits pull and wrapped modes.
//
// The paper's Table 1 tracks exactly these differences; the probes in
// internal/spec exercise this package at both versions to regenerate it.
package wse

import (
	"repro/internal/spec"
	"repro/internal/wsa"
	"repro/internal/xmldom"
)

// Version selects a WS-Eventing specification version.
type Version int

const (
	// V200401 is the 1/2004 release.
	V200401 Version = iota
	// V200408 is the 8/2004 release.
	V200408
)

// Namespace URIs per version.
const (
	NS200401 = "http://schemas.xmlsoap.org/ws/2004/01/eventing"
	NS200408 = "http://schemas.xmlsoap.org/ws/2004/08/eventing"
)

func init() {
	xmldom.RegisterPrefix(NS200401, "wse01")
	xmldom.RegisterPrefix(NS200408, "wse")
}

// NS returns the WS-Eventing namespace for the version.
func (v Version) NS() string {
	if v == V200401 {
		return NS200401
	}
	return NS200408
}

// WSAVersion returns the WS-Addressing version the spec version composes
// with (1/2004 → 2003/03; 8/2004 → 2004/08).
func (v Version) WSAVersion() wsa.Version {
	if v == V200401 {
		return wsa.V200303
	}
	return wsa.V200408
}

// String names the version as the paper does.
func (v Version) String() string {
	if v == V200401 {
		return "WS-Eventing 1/2004"
	}
	return "WS-Eventing 8/2004"
}

// Action URIs (suffixes on the version namespace).
func (v Version) action(op string) string { return v.NS() + "/" + op }

// ActionSubscribe et al. return the WS-Addressing action URIs for the
// version's operations.
func (v Version) ActionSubscribe() string         { return v.action("Subscribe") }
func (v Version) ActionSubscribeResponse() string { return v.action("SubscribeResponse") }
func (v Version) ActionRenew() string             { return v.action("Renew") }
func (v Version) ActionGetStatus() string         { return v.action("GetStatus") }
func (v Version) ActionUnsubscribe() string       { return v.action("Unsubscribe") }
func (v Version) ActionSubscriptionEnd() string   { return v.action("SubscriptionEnd") }
func (v Version) ActionPull() string              { return v.action("Pull") }

// Delivery mode URIs. Push is the default in both versions. Pull and Wrap
// ride the Delivery extension point added in 8/2004; the spec names the
// modes but leaves the wrapped message format undefined (Table 1: "Support
// Wrapped delivery mode" Yes vs "Define Wrapped message format" No).
func (v Version) DeliveryModePush() string { return v.NS() + "/DeliveryModes/Push" }
func (v Version) DeliveryModePull() string { return v.NS() + "/DeliveryModes/Pull" }
func (v Version) DeliveryModeWrap() string { return v.NS() + "/DeliveryModes/Wrap" }

// SupportsGetStatus reports whether the version defines GetStatus (added
// 8/2004, the paper's convergence item 3).
func (v Version) SupportsGetStatus() bool { return v == V200408 }

// SupportsPull reports whether pull delivery exists (added 8/2004,
// convergence item 5).
func (v Version) SupportsPull() bool { return v == V200408 }

// SupportsWrapped reports whether the wrapped mode may be requested
// (added 8/2004, convergence item 4).
func (v Version) SupportsWrapped() bool { return v == V200408 }

// SeparateManager reports whether the subscription manager is an entity
// distinct from the event source (8/2004, convergence item 1).
func (v Version) SeparateManager() bool { return v == V200408 }

// IdentifierInWSA reports whether the subscription id is returned inside
// the subscription manager's endpoint reference rather than as a separate
// element (8/2004, convergence item 2).
func (v Version) IdentifierInWSA() bool { return v == V200408 }

// Capabilities declares the version's Table 1 row values. Probes verify
// the machine-checkable ones by exercising the implementation.
func (v Version) Capabilities() spec.Capabilities {
	c := spec.Capabilities{
		Name:                        v.String(),
		DurationExpiry:              true,
		XPathDialect:                true,
		FilterElement:               true,
		SubscriptionEnd:             true,
		WSAVersion:                  v.WSAVersion().String(),
		GetStatusOperation:          v.SupportsGetStatus(),
		PullDelivery:                v.SupportsPull(),
		WrappedDelivery:             v.SupportsWrapped(),
		SeparateSubscriptionManager: v.SeparateManager(),
		SubscriptionIDInWSA:         v.IdentifierInWSA(),
	}
	if v == V200401 {
		c.ReleaseTag = "1/2004"
		return c
	}
	c.ReleaseTag = "8/2004"
	c.SeparateSubscriberAndSink = true
	c.GetStatusRequired = true
	c.PullModeInSubscription = true
	return c
}

// IdentifierName is the reference-parameter element carrying the
// subscription id in 8/2004 manager EPRs, and the body element carrying it
// in 1/2004 messages.
func (v Version) IdentifierName() xmldom.Name {
	if v == V200401 {
		return xmldom.N(NS200401, "Id")
	}
	return xmldom.N(NS200408, "Identifier")
}

// Subscription end status codes.
const (
	EndDeliveryFailure    = "DeliveryFailure"
	EndSourceShuttingDown = "SourceShuttingDown"
	EndSourceCanceling    = "SourceCanceling"
)
