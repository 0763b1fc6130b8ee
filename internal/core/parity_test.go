package core

// Management parity: the broker answers every spec version's management
// vocabulary (Table 2) at one front door, and the standalone wse.Source /
// wsnt.Producer answer the same vocabulary for their own version. Both must
// give the same answer to the same request — the same fault subcode, or
// the same reply element with the same children — so a subscriber cannot
// tell which kind of endpoint it is managing a subscription at.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/xmldom"
	"repro/internal/xsdt"
)

// parityDoor is one endpoint under comparison: where its producer-side and
// manager-side handlers listen, and how to give it a fresh subscription
// and a current message on grid.
type parityDoor struct {
	lb        *transport.Loopback
	front     string
	manager   string
	subscribe func(t *testing.T) string
	publish   func()
}

func (d parityDoor) call(env *soap.Envelope, front bool) string {
	addr := d.manager
	if front {
		addr = d.front
	}
	resp, err := d.lb.Call(context.Background(), addr, env)
	if err != nil {
		f, ok := soap.ErrFault(err)
		if !ok {
			return "error " + err.Error()
		}
		return fmt.Sprintf("fault %v %v", f.Code, f.Subcode)
	}
	body := resp.FirstBody()
	if body == nil {
		return "empty reply"
	}
	var kids []string
	for _, c := range body.ChildElements() {
		kids = append(kids, c.Name.String())
	}
	return fmt.Sprintf("reply %v(%s)", body.Name, strings.Join(kids, " "))
}

func parityClock() func() time.Time {
	now := time.Date(2006, 2, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time { return now }
}

// parityBroker starts a broker on its own loopback with the sinks both
// families deliver to.
func parityBroker(t *testing.T, clock func() time.Time) (*Broker, *transport.Loopback) {
	t.Helper()
	lb := transport.NewLoopback()
	b, err := New(Config{Address: "svc://wsm", ManagerAddress: "svc://wsm-subs",
		Client: lb, Clock: clock, SyncDelivery: true})
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("svc://wsm", b.FrontHandler())
	lb.Register("svc://wsm-subs", b.ManagerHandler())
	lb.Register("svc://sink", &wse.Sink{})
	lb.Register("svc://consumer", &wsnt.Consumer{})
	return b, lb
}

func wseParityDoors(t *testing.T, v wse.Version) (broker, standalone parityDoor) {
	clock := parityClock()
	req := func() *wse.SubscribeRequest {
		r := &wse.SubscribeRequest{NotifyTo: wsa.NewEPR(v.WSAVersion(), "svc://sink"), Expires: "PT1H"}
		if v.SupportsPull() {
			r.Mode = v.DeliveryModePull()
		}
		return r
	}
	subscriber := func(lb *transport.Loopback, addr string) func(t *testing.T) string {
		return func(t *testing.T) string {
			t.Helper()
			h, err := (&wse.Subscriber{Client: lb, Version: v}).Subscribe(context.Background(), addr, req())
			if err != nil {
				t.Fatalf("subscribe at %s: %v", addr, err)
			}
			return h.ID
		}
	}

	b, blb := parityBroker(t, clock)
	broker = parityDoor{lb: blb, front: "svc://wsm", manager: "svc://wsm-subs",
		subscribe: subscriber(blb, "svc://wsm"),
		publish:   func() { _ = b.Publish(grid, event("p")) }}

	slb := transport.NewLoopback()
	src := wse.NewSource(wse.SourceConfig{Version: v, Address: "svc://src",
		ManagerAddress: "svc://src-mgr", Client: slb, Clock: clock})
	slb.Register(src.ManagerAddress(), src.ManagerHandler())
	slb.Register("svc://src", src.SourceHandler()) // 1/2004: the source is its own manager
	slb.Register("svc://sink", &wse.Sink{})
	standalone = parityDoor{lb: slb, front: "svc://src", manager: src.ManagerAddress(),
		subscribe: subscriber(slb, "svc://src"),
		publish: func() {
			_, _ = src.Publish(context.Background(), event("p"), wse.PublishOptions{Topic: grid})
		}}
	return broker, standalone
}

func wsnParityDoors(t *testing.T, v wsnt.Version) (broker, standalone parityDoor) {
	clock := parityClock()
	req := func() *wsnt.SubscribeRequest {
		r := &wsnt.SubscribeRequest{
			ConsumerReference: wsa.NewEPR(v.WSAVersion(), "svc://consumer"),
			TopicExpression:   "t:jobs",
			TopicDialect:      topics.DialectConcrete,
			TopicNS:           map[string]string{"t": "urn:grid"},
		}
		r.InitialTerminationTime = "PT1H"
		if !v.SupportsDurationExpiry() {
			r.InitialTerminationTime = xsdt.FormatDateTime(clock().Add(time.Hour))
		}
		return r
	}
	subscriber := func(lb *transport.Loopback, addr string) func(t *testing.T) string {
		return func(t *testing.T) string {
			t.Helper()
			h, err := (&wsnt.Subscriber{Client: lb, Version: v}).Subscribe(context.Background(), addr, req())
			if err != nil {
				t.Fatalf("subscribe at %s: %v", addr, err)
			}
			return h.ID
		}
	}

	b, blb := parityBroker(t, clock)
	broker = parityDoor{lb: blb, front: "svc://wsm", manager: "svc://wsm-subs",
		subscribe: subscriber(blb, "svc://wsm"),
		publish:   func() { _ = b.Publish(grid, event("p")) }}

	plb := transport.NewLoopback()
	p := wsnt.NewProducer(wsnt.ProducerConfig{Version: v, Address: "svc://prod",
		ManagerAddress: "svc://prod-mgr", Client: plb, Clock: clock})
	plb.Register("svc://prod", p.ProducerHandler())
	plb.Register("svc://prod-mgr", p.ManagerHandler())
	plb.Register("svc://consumer", &wsnt.Consumer{})
	standalone = parityDoor{lb: plb, front: "svc://prod", manager: "svc://prod-mgr",
		subscribe: subscriber(plb, "svc://prod"),
		publish:   func() { _, _ = p.Publish(context.Background(), grid, event("p")) }}
	return broker, standalone
}

// TestWSRFSubscriptionResourceParity: a WSN 1.0 subscription is the same
// WS-Resource at the broker and at a standalone producer — the same
// property document, and a SetTerminationTime that the server's MaxExpiry
// clamps exactly as a native Renew is clamped.
func TestWSRFSubscriptionResourceParity(t *testing.T) {
	clock := parityClock()
	now := clock()
	blb := transport.NewLoopback()
	b, err := New(Config{Address: "svc://wsm", ManagerAddress: "svc://wsm-subs", Client: blb, Clock: clock,
		SyncDelivery: true, MaxExpiry: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	blb.Register("svc://wsm", b.FrontHandler())
	blb.Register("svc://wsm-subs", b.ManagerHandler())
	plb := transport.NewLoopback()
	p := wsnt.NewProducer(wsnt.ProducerConfig{Version: wsnt.V1_0, Address: "svc://prod",
		ManagerAddress: "svc://prod-mgr", Client: plb, Clock: clock, MaxExpiry: 2 * time.Hour})
	plb.Register("svc://prod", p.ProducerHandler())
	plb.Register("svc://prod-mgr", p.ManagerHandler())

	var docs []string
	for _, door := range []struct {
		lb   *transport.Loopback
		addr string
	}{{blb, "svc://wsm"}, {plb, "svc://prod"}} {
		sub := &wsnt.Subscriber{Client: door.lb, Version: wsnt.V1_0}
		h, err := sub.Subscribe(context.Background(), door.addr, &wsnt.SubscribeRequest{
			ConsumerReference: wsa.NewEPR(wsa.V200303, "svc://consumer"),
			TopicExpression:   "t:jobs", TopicDialect: topics.DialectConcrete, TopicNS: map[string]string{"t": "urn:grid"},
			InitialTerminationTime: xsdt.FormatDateTime(now.Add(time.Hour)),
		})
		if err != nil {
			t.Fatalf("subscribe at %s: %v", door.addr, err)
		}
		granted, err := sub.Renew(context.Background(), h, xsdt.FormatDateTime(now.Add(5*time.Hour)))
		if err != nil || !granted.Equal(now.Add(2*time.Hour)) {
			t.Errorf("%s: SetTerminationTime granted %v (%v), want the 2h MaxExpiry", door.addr, granted, err)
		}
		doc, err := sub.Status(context.Background(), h)
		if err != nil {
			t.Fatalf("%s: %v", door.addr, err)
		}
		var kids []string
		for _, c := range doc.ChildElements() {
			kids = append(kids, c.Name.Local+"="+strings.TrimSpace(c.Text()))
		}
		docs = append(docs, strings.Join(kids, " "))
	}
	if docs[0] != docs[1] {
		t.Errorf("property documents differ:\n  broker     %s\n  standalone %s", docs[0], docs[1])
	}
	if !strings.Contains(docs[0], "ConsumerReference=svc://consumer") {
		t.Errorf("broker document lacks ConsumerReference: %s", docs[0])
	}
}

// parityCase is one request phrased for one version: which subscription it
// names (a fresh known one, an unknown one, or none) and its body.
type parityCase struct {
	name  string
	id    string // "known" → a fresh subscription; "" → no id at all
	front bool   // GetCurrentMessage goes to the producer endpoint
	body  func(ns string) *xmldom.Element
}

const parityKnown = "known"

// parityCases expands one operation into its cells: known id, unknown id
// and each malformed argument when the version defines the operation, and
// a single "lacks" cell when it does not.
func parityCases(supported bool, malformed map[string]func(ns string) *xmldom.Element, valid func(ns string) *xmldom.Element) []parityCase {
	if !supported {
		return []parityCase{{name: "lacks", id: parityKnown, body: valid}}
	}
	cs := []parityCase{
		{name: "known", id: parityKnown, body: valid},
		{name: "unknown", id: "no-such-subscription", body: valid},
	}
	if malformed == nil {
		malformed = map[string]func(string) *xmldom.Element{"no-id": valid}
	}
	for name, body := range malformed {
		id := parityKnown
		if name == "no-id" {
			id = ""
		}
		cs = append(cs, parityCase{name: "malformed-" + name, id: id, body: body})
	}
	return cs
}

func bare(op string) func(ns string) *xmldom.Element {
	return func(ns string) *xmldom.Element { return xmldom.NewElement(xmldom.N(ns, op)) }
}

func withChild(op, child, text string) func(ns string) *xmldom.Element {
	return func(ns string) *xmldom.Element { return xmldom.Elem(ns, op, xmldom.Elem(ns, child, text)) }
}

func getCurrentMessage(dialect, expr string) func(ns string) *xmldom.Element {
	return func(ns string) *xmldom.Element {
		te := xmldom.Elem(ns, "Topic", expr)
		te.SetAttr(xmldom.N("", "Dialect"), dialect)
		te.DeclarePrefix("t", "urn:grid")
		return xmldom.Elem(ns, "GetCurrentMessage", te)
	}
}

// TestManagementParity compares broker and standalone endpoint cell by cell
// over all four wire versions.
func TestManagementParity(t *testing.T) {
	type family struct {
		name  string
		doors func(t *testing.T) (parityDoor, parityDoor)
		ns    string
		cases map[string][]parityCase
		// stamp puts the subscription id where the version carries it.
		stamp func(env *soap.Envelope, body *xmldom.Element, id string)
	}
	var fams []family
	for _, v := range []wse.Version{wse.V200401, wse.V200408} {
		fams = append(fams, family{
			name:  v.String(),
			doors: func(t *testing.T) (parityDoor, parityDoor) { return wseParityDoors(t, v) },
			ns:    v.NS(),
			cases: map[string][]parityCase{
				"Renew": parityCases(true, map[string]func(string) *xmldom.Element{
					"expires": withChild("Renew", "Expires", "quarter-past-never"),
				}, withChild("Renew", "Expires", "PT2H")),
				"GetStatus":   parityCases(v.SupportsGetStatus(), nil, bare("GetStatus")),
				"Unsubscribe": parityCases(true, nil, bare("Unsubscribe")),
				"Pull": parityCases(v.SupportsPull(), map[string]func(string) *xmldom.Element{
					"max-nan":      withChild("Pull", "MaxElements", "abc"),
					"max-negative": withChild("Pull", "MaxElements", "-1"),
				}, withChild("Pull", "MaxElements", "1")),
			},
			stamp: func(env *soap.Envelope, body *xmldom.Element, id string) {
				if v == wse.V200401 {
					body.Append(xmldom.Elem(v.NS(), "Id", id))
				} else {
					env.AddHeader(xmldom.Elem(v.NS(), "Identifier", id))
				}
			},
		})
	}
	for _, v := range []wsnt.Version{wsnt.V1_0, wsnt.V1_3} {
		renewTo := "PT2H"
		if !v.SupportsDurationExpiry() {
			renewTo = "2006-02-01T02:00:00Z"
		}
		fams = append(fams, family{
			name:  v.String(),
			doors: func(t *testing.T) (parityDoor, parityDoor) { return wsnParityDoors(t, v) },
			ns:    v.NS(),
			cases: map[string][]parityCase{
				"PauseSubscription":  parityCases(true, nil, bare("PauseSubscription")),
				"ResumeSubscription": parityCases(true, nil, bare("ResumeSubscription")),
				"Renew": parityCases(v.SupportsNativeManagement(), map[string]func(string) *xmldom.Element{
					"termination": withChild("Renew", "TerminationTime", "quarter-past-never"),
				}, withChild("Renew", "TerminationTime", renewTo)),
				"Unsubscribe": parityCases(v.SupportsNativeManagement(), nil, bare("Unsubscribe")),
				"GetCurrentMessage": {
					{name: "known", front: true, body: getCurrentMessage(topics.DialectConcrete, "t:jobs")},
					{name: "unknown", front: true, body: getCurrentMessage(topics.DialectConcrete, "t:idle")},
					{name: "malformed-no-topic", front: true, body: bare("GetCurrentMessage")},
					{name: "malformed-dialect", front: true, body: getCurrentMessage("urn:bogus", "t:jobs")},
					{name: "malformed-not-concrete", front: true, body: getCurrentMessage(topics.DialectFull, "t:*")},
				},
			},
			stamp: func(env *soap.Envelope, _ *xmldom.Element, id string) {
				env.AddHeader(xmldom.Elem(v.NS(), "SubscriptionId", id))
			},
		})
	}

	for _, fam := range fams {
		broker, standalone := fam.doors(t)
		broker.publish()
		standalone.publish()
		for op, cases := range fam.cases {
			for _, c := range cases {
				t.Run(fam.name+"/"+op+"/"+c.name, func(t *testing.T) {
					ask := func(d parityDoor) string {
						body := c.body(fam.ns)
						env := soap.New(soap.V11)
						(&wsa.MessageHeaders{Version: wsa.V200508, Action: fam.ns + "/" + op,
							MessageID: "urn:test:parity"}).Apply(env)
						switch c.id {
						case "":
						case parityKnown:
							fam.stamp(env, body, d.subscribe(t))
							d.publish() // something to Pull
						default:
							fam.stamp(env, body, c.id)
						}
						env.AddBody(body)
						return d.call(env, c.front)
					}
					if got, want := ask(standalone), ask(broker); got != want {
						t.Errorf("standalone answers %s\n           broker answers %s", got, want)
					}
				})
			}
		}
	}
}

// subscribeSummary renders a Subscribe answer for comparison: the fault
// code and subcode, or the reply's action, body element, child names and
// the granted times (ids and manager addresses differ by construction).
func subscribeSummary(resp *soap.Envelope, err error) string {
	if err != nil {
		if f, ok := soap.ErrFault(err); ok {
			return fmt.Sprintf("fault %v %v", f.Code, f.Subcode)
		}
		return "error " + err.Error()
	}
	body := resp.FirstBody()
	if body == nil {
		return "empty reply"
	}
	var kids []string
	for _, c := range body.ChildElements() {
		kid := c.Name.String()
		switch c.Name.Local {
		case "Expires", "TerminationTime", "CurrentTime":
			kid += "=" + strings.TrimSpace(c.Text())
		}
		kids = append(kids, kid)
	}
	action := ""
	if h, ok := wsa.ParseHeaders(resp); ok {
		action = h.Action
	}
	return fmt.Sprintf("reply %s %v(%s)", action, body.Name, strings.Join(kids, " "))
}

// subscribeCell is one Subscribe request, rendered for a door's version.
type subscribeCell struct {
	name string
	body func() *xmldom.Element
	// differs declares a cell on which the two doors answer differently by
	// design: a standalone server is pinned to its version and faults a
	// Subscribe of the other one, which the broker accepts.
	differs bool
}

// TestSubscribeParity sends the same Subscribe, valid and malformed in
// every way a filter, expiry, delivery mode or consumer can be, to the
// broker and to the standalone server of each wire version. Both must
// grant the same lease or refuse with the same fault.
func TestSubscribeParity(t *testing.T) {
	now := parityClock()()
	type family struct {
		name  string
		doors func(t *testing.T) (parityDoor, parityDoor)
		cells []subscribeCell
	}
	var fams []family
	for _, v := range []wse.Version{wse.V200401, wse.V200408} {
		other := wse.V200408
		if v == wse.V200408 {
			other = wse.V200401
		}
		req := func(edit func(r *wse.SubscribeRequest)) func() *xmldom.Element {
			return func() *xmldom.Element {
				r := &wse.SubscribeRequest{NotifyTo: wsa.NewEPR(v.WSAVersion(), "svc://sink"), Expires: "PT1H"}
				edit(r)
				return r.Element(v)
			}
		}
		fams = append(fams, family{
			name:  v.String(),
			doors: func(t *testing.T) (parityDoor, parityDoor) { return wseParityDoors(t, v) },
			cells: []subscribeCell{
				{name: "valid", body: req(func(r *wse.SubscribeRequest) {})},
				{name: "no-notify-to", body: req(func(r *wse.SubscribeRequest) { r.NotifyTo = nil })},
				{name: "no-expiry", body: req(func(r *wse.SubscribeRequest) { r.Expires = "" })},
				{name: "bad-expiry", body: req(func(r *wse.SubscribeRequest) { r.Expires = "quarter-past-never" })},
				{name: "negative-expiry", body: req(func(r *wse.SubscribeRequest) { r.Expires = "-PT1H" })},
				{name: "past-expiry", body: req(func(r *wse.SubscribeRequest) { r.Expires = "2000-01-01T00:00:00Z" })},
				{name: "prefixed-xpath", body: req(func(r *wse.SubscribeRequest) {
					r.FilterExpr, r.FilterNS = "/g:Ev[g:val='p']", map[string]string{"g": "urn:grid"}
				})},
				{name: "bad-xpath", body: req(func(r *wse.SubscribeRequest) { r.FilterExpr = "///[" })},
				{name: "unknown-dialect", body: req(func(r *wse.SubscribeRequest) {
					r.FilterDialect, r.FilterExpr = "urn:bogus", "/Ev"
				})},
				{name: "topic-dialect", body: req(func(r *wse.SubscribeRequest) {
					r.FilterDialect, r.FilterExpr = topics.DialectConcrete, "jobs"
				})},
				{name: "pull", body: req(func(r *wse.SubscribeRequest) { r.Mode = v.DeliveryModePull() })},
				{name: "wrap", body: req(func(r *wse.SubscribeRequest) { r.Mode = v.DeliveryModeWrap() })},
				{name: "bogus-mode", body: req(func(r *wse.SubscribeRequest) { r.Mode = "urn:bogus-mode" })},
				{name: "pull-no-notify-to", body: req(func(r *wse.SubscribeRequest) {
					r.Mode, r.NotifyTo = v.DeliveryModePull(), nil
				})},
				{name: "other-version", differs: true, body: func() *xmldom.Element {
					return (&wse.SubscribeRequest{NotifyTo: wsa.NewEPR(other.WSAVersion(), "svc://sink")}).Element(other)
				}},
			},
		})
	}
	for _, v := range []wsnt.Version{wsnt.V1_0, wsnt.V1_3} {
		other := wsnt.V1_3
		if v == wsnt.V1_3 {
			other = wsnt.V1_0
		}
		consumer := func(v wsnt.Version) *wsa.EndpointReference { return wsa.NewEPR(v.WSAVersion(), "svc://consumer") }
		req := func(edit func(r *wsnt.SubscribeRequest)) func() *xmldom.Element {
			return func() *xmldom.Element {
				r := &wsnt.SubscribeRequest{
					ConsumerReference: consumer(v),
					TopicExpression:   "t:jobs", TopicDialect: topics.DialectConcrete,
					TopicNS:                map[string]string{"t": "urn:grid"},
					InitialTerminationTime: xsdt.FormatDateTime(now.Add(time.Hour)),
				}
				edit(r)
				return r.Element(v)
			}
		}
		fams = append(fams, family{
			name:  v.String(),
			doors: func(t *testing.T) (parityDoor, parityDoor) { return wsnParityDoors(t, v) },
			cells: []subscribeCell{
				{name: "valid", body: req(func(r *wsnt.SubscribeRequest) {})},
				{name: "no-consumer", body: req(func(r *wsnt.SubscribeRequest) { r.ConsumerReference = nil })},
				{name: "no-topic", body: req(func(r *wsnt.SubscribeRequest) { r.TopicExpression = "" })},
				{name: "no-expiry", body: req(func(r *wsnt.SubscribeRequest) { r.InitialTerminationTime = "" })},
				{name: "bad-expiry", body: req(func(r *wsnt.SubscribeRequest) { r.InitialTerminationTime = "quarter-past-never" })},
				{name: "duration", body: req(func(r *wsnt.SubscribeRequest) { r.InitialTerminationTime = "PT1H" })},
				{name: "past-expiry", body: req(func(r *wsnt.SubscribeRequest) { r.InitialTerminationTime = "2000-01-01T00:00:00Z" })},
				{name: "unknown-topic-dialect", body: req(func(r *wsnt.SubscribeRequest) { r.TopicDialect = "urn:bogus" })},
				{name: "wildcard-topic", body: req(func(r *wsnt.SubscribeRequest) {
					r.TopicDialect, r.TopicExpression = topics.DialectFull, "t:*"
				})},
				{name: "bad-topic", body: req(func(r *wsnt.SubscribeRequest) { r.TopicExpression = "t:jobs//[" })},
				{name: "unbound-prefix", body: req(func(r *wsnt.SubscribeRequest) { r.TopicExpression = "u:jobs" })},
				{name: "prefixed-xpath", body: req(func(r *wsnt.SubscribeRequest) {
					r.ContentExpr, r.ContentNS = "/g:Ev[g:val='p']", map[string]string{"g": "urn:grid"}
				})},
				{name: "bad-xpath", body: req(func(r *wsnt.SubscribeRequest) { r.ContentExpr = "///[" })},
				{name: "content-dialect", body: req(func(r *wsnt.SubscribeRequest) {
					r.ContentDialect, r.ContentExpr = "urn:bogus", "/Ev"
				})},
				{name: "bad-producer-properties", body: req(func(r *wsnt.SubscribeRequest) { r.ProducerPropsExpr = "///[" })},
				{name: "use-raw", body: req(func(r *wsnt.SubscribeRequest) { r.UseRaw = true })},
				{name: "other-version", differs: true, body: func() *xmldom.Element {
					return (&wsnt.SubscribeRequest{ConsumerReference: consumer(other), TopicExpression: "t:jobs",
						TopicNS: map[string]string{"t": "urn:grid"}}).Element(other)
				}},
			},
		})
	}

	for _, fam := range fams {
		broker, standalone := fam.doors(t)
		for _, c := range fam.cells {
			t.Run(fam.name+"/"+c.name, func(t *testing.T) {
				ask := func(d parityDoor) string {
					body := c.body()
					env := soap.New(soap.V11)
					(&wsa.MessageHeaders{Version: wsa.V200508, Action: body.Name.Space + "/Subscribe",
						MessageID: "urn:test:parity"}).Apply(env)
					env.AddBody(body)
					return subscribeSummary(d.lb.Call(context.Background(), d.front, env))
				}
				got, want := ask(standalone), ask(broker)
				if c.differs {
					if got == want {
						t.Errorf("declared difference vanished: both answer %s", got)
					}
					return
				}
				if got != want {
					t.Errorf("standalone answers %s\n           broker answers %s", got, want)
				}
			})
		}
	}
}
