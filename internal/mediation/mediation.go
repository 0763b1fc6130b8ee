// Package mediation implements the WS-Messenger mediation techniques the
// paper presents in §VII: reconciling the differences between WS-Eventing
// and WS-Notification so that producers and consumers speaking different
// specifications interoperate through one broker.
//
// The mediation is pure message transformation around one canonical model:
// incoming subscribe requests and notifications of either family parse
// into canonical structs; outgoing messages render into whichever
// family/version the destination expects. Every §V.4 format difference is
// handled here — element names, namespaces, WS-Addressing versions, action
// URIs, message structure (wrapped vs raw), and content location (topic in
// body vs SOAP header).
package mediation

import (
	"fmt"
	"strings"

	"repro/internal/filter"
	"repro/internal/soap"
	"repro/internal/topics"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/xmldom"
)

// Family identifies which specification family a message belongs to.
type Family int

const (
	// FamilyUnknown — not recognisably WSE or WSN.
	FamilyUnknown Family = iota
	// FamilyWSE — WS-Eventing (either version).
	FamilyWSE
	// FamilyWSN — WS-Notification (either version).
	FamilyWSN
	// FamilyCE — CloudEvents 1.0 over HTTP or WebSocket: the modern front
	// door. It has no SOAP body namespace, so DetectBody never yields it;
	// CE subscriptions enter through the JSON endpoints and exist only as
	// a delivery dialect.
	FamilyCE
)

// String names the family.
func (f Family) String() string {
	switch f {
	case FamilyWSE:
		return "WS-Eventing"
	case FamilyWSN:
		return "WS-Notification"
	case FamilyCE:
		return "CloudEvents"
	}
	return "unknown"
}

// Dialect pins a message to a family and concrete spec version.
type Dialect struct {
	Family Family
	WSE    wse.Version
	WSN    wsnt.Version
}

// String renders the full spec name.
func (d Dialect) String() string {
	switch d.Family {
	case FamilyWSE:
		return d.WSE.String()
	case FamilyWSN:
		return d.WSN.String()
	case FamilyCE:
		return "CloudEvents 1.0"
	}
	return "unknown"
}

// DetectBody classifies a message by the namespace of a body element —
// the automatic spec detection WS-Messenger performs on every incoming
// SOAP message (§VII).
func DetectBody(body *xmldom.Element) (Dialect, bool) {
	if body == nil {
		return Dialect{}, false
	}
	switch body.Name.Space {
	case wse.NS200401:
		return Dialect{Family: FamilyWSE, WSE: wse.V200401}, true
	case wse.NS200408:
		return Dialect{Family: FamilyWSE, WSE: wse.V200408}, true
	case wsnt.NS1_0:
		return Dialect{Family: FamilyWSN, WSN: wsnt.V1_0}, true
	case wsnt.NS1_3:
		return Dialect{Family: FamilyWSN, WSN: wsnt.V1_3}, true
	}
	return Dialect{}, false
}

// Subscribe is the canonical subscription request: the superset of what
// either family can express, tagged with the dialect it arrived in so
// responses and deliveries can follow the same specification.
type Subscribe struct {
	Origin Dialect

	Consumer *wsa.EndpointReference
	EndTo    *wsa.EndpointReference // WSE only
	Expires  string                 // raw dateTime/duration

	TopicExpr    string
	TopicDialect string
	TopicNS      map[string]string

	ContentExpr    string
	ContentDialect string
	ContentNS      map[string]string

	ProducerPropsExpr    string
	ProducerPropsDialect string
	ProducerPropsNS      map[string]string

	// UseRaw: deliver the bare payload. WSE consumers always take raw
	// messages (plus our extension wrapper for its wrapped mode); WSN
	// consumers default to the wrapped Notify form unless they asked for
	// raw.
	UseRaw bool
	// PullMode: WSE 8/2004 pull subscriptions queue at the broker.
	PullMode bool
	// WrapMode: WSE 8/2004 wrapped subscriptions batch at the broker.
	WrapMode bool
	// CEMode selects the HTTP-binding content mode for FamilyCE
	// subscribers: CEStructured, CEBatched or CEBinary.
	CEMode string
}

// CloudEvents delivery content modes (FamilyCE subscriptions only).
const (
	// CEStructured delivers one application/cloudevents+json object per
	// notification.
	CEStructured = "structured"
	// CEBatched delivers application/cloudevents-batch+json arrays, the
	// mode the per-destination coalescing serves the same way it serves
	// WSN 1.3 multi-NotificationMessage envelopes.
	CEBatched = "batched"
	// CEBinary delivers binary-mode events: attributes as ce-* headers,
	// bare data as the body.
	CEBinary = "binary"
)

// FromWSE lifts a WS-Eventing subscribe into the canonical model.
func FromWSE(req *wse.SubscribeRequest, v wse.Version) *Subscribe {
	s := &Subscribe{
		Origin:   Dialect{Family: FamilyWSE, WSE: v},
		Consumer: req.NotifyTo,
		EndTo:    req.EndTo,
		Expires:  req.Expires,
		UseRaw:   true, // WSE notifications are raw (§V.3)
	}
	if req.FilterExpr != "" {
		s.ContentExpr = req.FilterExpr
		s.ContentDialect = req.FilterDialect
		s.ContentNS = req.FilterNS
	}
	s.PullMode = req.Mode == v.DeliveryModePull()
	s.WrapMode = req.Mode == v.DeliveryModeWrap()
	return s
}

// FromWSN lifts a WS-Notification subscribe into the canonical model.
func FromWSN(req *wsnt.SubscribeRequest, v wsnt.Version) *Subscribe {
	return &Subscribe{
		Origin:               Dialect{Family: FamilyWSN, WSN: v},
		Consumer:             req.ConsumerReference,
		Expires:              req.InitialTerminationTime,
		TopicExpr:            req.TopicExpression,
		TopicDialect:         req.TopicDialect,
		TopicNS:              req.TopicNS,
		ContentExpr:          req.ContentExpr,
		ContentDialect:       req.ContentDialect,
		ContentNS:            req.ContentNS,
		ProducerPropsExpr:    req.ProducerPropsExpr,
		ProducerPropsDialect: req.ProducerPropsDialect,
		ProducerPropsNS:      req.ProducerPropsNS,
		UseRaw:               req.UseRaw,
	}
}

// ToWSE lowers the canonical subscription back to a WS-Eventing request —
// used when the broker re-subscribes upstream on behalf of a mediated
// subscriber. Topic filters cannot be expressed in WSE; callers keep them
// broker-side.
func (s *Subscribe) ToWSE(v wse.Version) *wse.SubscribeRequest {
	req := &wse.SubscribeRequest{
		NotifyTo:      s.Consumer,
		EndTo:         s.EndTo,
		Expires:       s.Expires,
		FilterExpr:    s.ContentExpr,
		FilterDialect: s.ContentDialect,
		FilterNS:      s.ContentNS,
	}
	if s.PullMode && v.SupportsPull() {
		req.Mode = v.DeliveryModePull()
	}
	return req
}

// ToWSN lowers the canonical subscription to a WS-Notification request.
func (s *Subscribe) ToWSN(v wsnt.Version) *wsnt.SubscribeRequest {
	return &wsnt.SubscribeRequest{
		ConsumerReference:      s.Consumer,
		InitialTerminationTime: s.Expires,
		TopicExpression:        s.TopicExpr,
		TopicDialect:           s.TopicDialect,
		TopicNS:                s.TopicNS,
		ContentExpr:            s.ContentExpr,
		ContentDialect:         s.ContentDialect,
		ContentNS:              s.ContentNS,
		ProducerPropsExpr:      s.ProducerPropsExpr,
		ProducerPropsDialect:   s.ProducerPropsDialect,
		ProducerPropsNS:        s.ProducerPropsNS,
		UseRaw:                 s.UseRaw,
	}
}

// BuildFilter compiles the canonical filters into one conjunction, by the
// WS-Notification rules every family's filters are a subset of.
func (s *Subscribe) BuildFilter() (filter.All, error) {
	return s.ToWSN(wsnt.V1_3).BuildFilter(wsnt.V1_3)
}

// Notification is the canonical event: payload plus optional topic and,
// on a federated broker, the relay provenance every delivery carries.
type Notification struct {
	Topic   topics.Path
	Payload *xmldom.Element
	// Relay, when set, is rendered as the wsmf:Relay SOAP header on every
	// delivery. It is identical for all subscribers of one publish, so it
	// becomes part of the shared render template rather than a splice slot.
	Relay *Relay
}

// ParseIncoming extracts canonical notifications from a publisher's
// envelope of either family:
//
//   - WSN Notify → one per NotificationMessage, topic from the body
//     (§V.4 item 6: WSN carries topics in the body);
//   - anything else → one raw notification, topic from the WSE extension
//     SOAP header when present (WSE has no body slot for topics).
func ParseIncoming(env *soap.Envelope) ([]Notification, Dialect, error) {
	body := env.FirstBody()
	if body == nil {
		return nil, Dialect{}, fmt.Errorf("mediation: empty envelope")
	}
	if body.Name.Local == "Notify" {
		if d, ok := DetectBody(body); ok && d.Family == FamilyWSN {
			msgs, _, err := wsnt.ParseNotify(body)
			if err != nil {
				return nil, d, err
			}
			var out []Notification
			for _, m := range msgs {
				if m.Payload != nil {
					out = append(out, Notification{Topic: m.Topic, Payload: m.Payload})
				}
			}
			return out, d, nil
		}
	}
	// Raw (WSE-style) publish; topic may ride in the extension header.
	n := Notification{Payload: body}
	if h := env.Header(wse.TopicHeaderName); h != nil {
		n.Topic = parseClarkPath(strings.TrimSpace(h.Text()))
	}
	d := Dialect{Family: FamilyWSE, WSE: wse.V200408}
	if hd, ok := wsa.ParseHeaders(env); ok && hd.Version == wsa.V200303 {
		d.WSE = wse.V200401
	}
	return []Notification{n}, d, nil
}

func parseClarkPath(s string) topics.Path {
	if s == "" {
		return topics.Path{}
	}
	ns := ""
	if strings.HasPrefix(s, "{") {
		if i := strings.Index(s, "}"); i > 0 {
			ns, s = s[1:i], s[i+1:]
		}
	}
	if s == "" {
		return topics.Path{}
	}
	return topics.Path{Namespace: ns, Segments: strings.Split(s, "/")}
}

// DeliveryPlan says how to render a notification for one subscriber.
type DeliveryPlan struct {
	Dialect Dialect
	UseRaw  bool
	// SubscriptionID is embedded in WSN 1.3 wrapped messages.
	SubscriptionID string
	// ManagerAddress names the broker's manager endpoint in references.
	ManagerAddress string
	// ProducerAddress names the broker in WSN 1.3 ProducerReferences and
	// as the CloudEvents source attribute for synthesised events.
	ProducerAddress string
	// CEMode is the CloudEvents content mode (FamilyCE plans only).
	CEMode string
}

// Render produces the delivery envelope for a notification under the plan,
// addressed to the consumer. This is the moment of mediation: a message
// published in one spec leaves in the subscriber's spec, with the topic
// relocated between SOAP body and header as §V.4 item 6 requires.
func Render(n Notification, consumer *wsa.EndpointReference, plan DeliveryPlan, messageID string) *soap.Envelope {
	env := soap.New(soap.V11)
	if n.Relay != nil {
		env.AddHeader(n.Relay.Element())
	}
	switch plan.Dialect.Family {
	case FamilyWSN:
		v := plan.Dialect.WSN
		h := wsa.DestinationEPR(consumer.Convert(v.WSAVersion()), v.ActionNotify(), messageID)
		h.Apply(env)
		if plan.UseRaw {
			env.AddBody(n.Payload.Clone())
			return env
		}
		nm := &wsnt.NotificationMessage{Topic: n.Topic, Payload: n.Payload.Clone()}
		if v == wsnt.V1_3 {
			if plan.ManagerAddress != "" {
				ref := wsa.NewEPR(v.WSAVersion(), plan.ManagerAddress)
				if plan.SubscriptionID != "" {
					ref.AddReferenceParameter(xmldom.Elem(v.NS(), "SubscriptionId", plan.SubscriptionID))
				}
				nm.SubscriptionReference = ref
			}
			if plan.ProducerAddress != "" {
				nm.ProducerReference = wsa.NewEPR(v.WSAVersion(), plan.ProducerAddress)
			}
		}
		env.AddBody(wsnt.NotifyElement(v, []*wsnt.NotificationMessage{nm}))
		return env
	default: // WSE
		v := plan.Dialect.WSE
		h := wsa.DestinationEPR(consumer.Convert(v.WSAVersion()), v.NS()+"/Notification", messageID)
		h.Apply(env)
		if !n.Topic.IsZero() {
			env.AddHeader(xmldom.Elem(wse.TopicHeaderName.Space, wse.TopicHeaderName.Local, n.Topic.String()))
		}
		env.AddBody(n.Payload.Clone())
		return env
	}
}

// RenderWrappedWSE produces one batched envelope for a WSE wrapped-mode
// subscriber, in the same extension format wse.Source uses (the 8/2004
// spec names the mode but leaves its format undefined). Batches may mix
// messages of different relay provenance, so wrapped envelopes carry no
// wsmf:Relay header — peer links never subscribe in wrapped mode.
func RenderWrappedWSE(batch []Notification, consumer *wsa.EndpointReference, plan DeliveryPlan, messageID string) *soap.Envelope {
	v := plan.Dialect.WSE
	env := soap.New(soap.V11)
	h := wsa.DestinationEPR(consumer.Convert(v.WSAVersion()), v.NS()+"/Notification", messageID)
	h.Apply(env)
	wrapper := xmldom.NewElement(wse.WrappedName)
	for _, n := range batch {
		wrapper.Append(xmldom.Elem(wse.WrappedName.Space, "Message", n.Payload.Clone()))
	}
	env.AddBody(wrapper)
	return env
}
