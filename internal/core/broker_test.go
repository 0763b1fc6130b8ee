package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/xmldom"
)

type clock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

type fixture struct {
	lb     *transport.Loopback
	broker *Broker
	clock  *clock
	// consumers speaking each spec family
	wseSink *wse.Sink
	wsnSink *wsnt.Consumer
}

func newFixture(t *testing.T, mutate ...func(*Config)) *fixture {
	t.Helper()
	lb := transport.NewLoopback()
	clk := &clock{t: time.Date(2006, 2, 1, 0, 0, 0, 0, time.UTC)}
	cfg := Config{
		Address:        "svc://wsm",
		ManagerAddress: "svc://wsm-subs",
		Client:         lb,
		Clock:          clk.now,
		SyncDelivery:   true, // deterministic for tests; async covered separately
	}
	for _, m := range mutate {
		m(&cfg)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("svc://wsm", b.FrontHandler())
	lb.Register("svc://wsm-subs", b.ManagerHandler())
	f := &fixture{lb: lb, broker: b, clock: clk, wseSink: &wse.Sink{}, wsnSink: &wsnt.Consumer{}}
	lb.Register("svc://wse-sink", f.wseSink)
	lb.Register("svc://wsn-consumer", f.wsnSink)
	return f
}

var grid = topics.NewPath("urn:grid", "jobs")

func event(v string) *xmldom.Element {
	return xmldom.Elem("urn:grid", "Ev", xmldom.Elem("urn:grid", "val", v))
}

// publishWSE sends a raw WSE-style notification (topic in the extension
// header) to the broker front door.
func (f *fixture) publishWSE(t *testing.T, topic topics.Path, payload *xmldom.Element) {
	t.Helper()
	env := soap.New(soap.V11)
	h := &wsa.MessageHeaders{Version: wsa.V200408, To: "svc://wsm", Action: "urn:test:publish"}
	h.Apply(env)
	if !topic.IsZero() {
		env.AddHeader(xmldom.Elem(wse.TopicHeaderName.Space, wse.TopicHeaderName.Local, topic.String()))
	}
	env.AddBody(payload)
	if err := f.lb.Send(context.Background(), "svc://wsm", env); err != nil {
		t.Fatalf("publishWSE: %v", err)
	}
}

// publishWSN sends a wrapped WSN Notify to the broker front door.
func (f *fixture) publishWSN(t *testing.T, topic topics.Path, payload *xmldom.Element) {
	t.Helper()
	env := soap.New(soap.V11)
	h := &wsa.MessageHeaders{Version: wsa.V200508, To: "svc://wsm", Action: wsnt.V1_3.ActionNotify()}
	h.Apply(env)
	env.AddBody(wsnt.NotifyElement(wsnt.V1_3, []*wsnt.NotificationMessage{
		{Topic: topic, Payload: payload},
	}))
	if err := f.lb.Send(context.Background(), "svc://wsm", env); err != nil {
		t.Fatalf("publishWSN: %v", err)
	}
}

func (f *fixture) subscribeWSE(t *testing.T, v wse.Version, req *wse.SubscribeRequest) *wse.Handle {
	t.Helper()
	if req.NotifyTo == nil {
		req.NotifyTo = wsa.NewEPR(v.WSAVersion(), "svc://wse-sink")
	}
	s := &wse.Subscriber{Client: f.lb, Version: v}
	h, err := s.Subscribe(context.Background(), "svc://wsm", req)
	if err != nil {
		t.Fatalf("wse subscribe: %v", err)
	}
	return h
}

func (f *fixture) subscribeWSN(t *testing.T, v wsnt.Version, req *wsnt.SubscribeRequest) *wsnt.Handle {
	t.Helper()
	if req.ConsumerReference == nil {
		req.ConsumerReference = wsa.NewEPR(v.WSAVersion(), "svc://wsn-consumer")
	}
	if v.RequiresTopic() && req.TopicExpression == "" {
		req.TopicExpression = "tns:jobs"
		req.TopicDialect = topics.DialectSimple
		req.TopicNS = map[string]string{"tns": "urn:grid"}
	}
	s := &wsnt.Subscriber{Client: f.lb, Version: v}
	h, err := s.Subscribe(context.Background(), "svc://wsm", req)
	if err != nil {
		t.Fatalf("wsn subscribe: %v", err)
	}
	return h
}

// --- The mediation matrix: every producer family × consumer family ---

func TestMediationMatrix(t *testing.T) {
	type pub func(*fixture, *testing.T)
	pubs := map[string]pub{
		"WSE-publisher": func(f *fixture, t *testing.T) { f.publishWSE(t, grid, event("x")) },
		"WSN-publisher": func(f *fixture, t *testing.T) { f.publishWSN(t, grid, event("x")) },
	}
	for pname, publish := range pubs {
		t.Run(pname+"->WSE-consumer", func(t *testing.T) {
			f := newFixture(t)
			f.subscribeWSE(t, wse.V200408, &wse.SubscribeRequest{})
			publish(f, t)
			if f.wseSink.Count() != 1 {
				t.Fatalf("wse sink got %d", f.wseSink.Count())
			}
			got := f.wseSink.Received()[0]
			if got.Payload.ChildText(xmldom.N("urn:grid", "val")) != "x" {
				t.Error("payload corrupted in mediation")
			}
			// WSE consumers get the topic via the SOAP header (§V.4.6).
			if !got.Topic.Equal(grid) {
				t.Errorf("topic header = %v", got.Topic)
			}
		})
		t.Run(pname+"->WSN-consumer", func(t *testing.T) {
			f := newFixture(t)
			f.subscribeWSN(t, wsnt.V1_3, &wsnt.SubscribeRequest{})
			publish(f, t)
			if f.wsnSink.Count() != 1 {
				t.Fatalf("wsn consumer got %d", f.wsnSink.Count())
			}
			got := f.wsnSink.Received()[0]
			if !got.Wrapped {
				t.Error("WSN consumer should receive the wrapped Notify form")
			}
			if got.Payload.ChildText(xmldom.N("urn:grid", "val")) != "x" {
				t.Error("payload corrupted in mediation")
			}
			// WSN consumers get the topic in the body.
			if !got.Topic.Equal(grid) {
				t.Errorf("topic in Notify = %v", got.Topic)
			}
		})
	}
}

func TestMediationCountsCrossSpecDeliveries(t *testing.T) {
	f := newFixture(t)
	f.subscribeWSE(t, wse.V200408, &wse.SubscribeRequest{})
	f.subscribeWSN(t, wsnt.V1_3, &wsnt.SubscribeRequest{})
	f.publishWSE(t, grid, event("a")) // WSE→WSN is one mediation
	f.publishWSN(t, grid, event("b")) // WSN→WSE is another
	st := f.broker.Stats()
	if st.Published != 2 || st.Delivered != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.Mediations != 2 {
		t.Errorf("mediations = %d, want 2", st.Mediations)
	}
}

func TestResponseFollowsRequestSpec(t *testing.T) {
	// §VII: "Response messages follow the same specifications as request
	// messages." Subscribe in all four versions; each response must carry
	// the requester's namespace.
	f := newFixture(t)
	for _, v := range []wse.Version{wse.V200401, wse.V200408} {
		h := f.subscribeWSE(t, v, &wse.SubscribeRequest{})
		if h.ID == "" {
			t.Errorf("%v: no id", v)
		}
		if h.Manager.Version != v.WSAVersion() {
			t.Errorf("%v: manager EPR WSA version = %v", v, h.Manager.Version)
		}
	}
	for _, v := range []wsnt.Version{wsnt.V1_0, wsnt.V1_3} {
		h := f.subscribeWSN(t, v, &wsnt.SubscribeRequest{})
		if h.ID == "" {
			t.Errorf("%v: no id", v)
		}
		if h.SubscriptionReference.Version != v.WSAVersion() {
			t.Errorf("%v: reference WSA version = %v", v, h.SubscriptionReference.Version)
		}
	}
	if f.broker.SubscriptionCount() != 4 {
		t.Errorf("subscriptions = %d", f.broker.SubscriptionCount())
	}
}

func TestManagementPerSpec(t *testing.T) {
	f := newFixture(t)
	// WSE 8/2004 lifecycle against the broker manager.
	ws := &wse.Subscriber{Client: f.lb, Version: wse.V200408}
	h := f.subscribeWSE(t, wse.V200408, &wse.SubscribeRequest{Expires: "PT10M"})
	if _, err := ws.Renew(context.Background(), h, "PT1H"); err != nil {
		t.Fatalf("wse renew: %v", err)
	}
	if _, err := ws.GetStatus(context.Background(), h); err != nil {
		t.Fatalf("wse getstatus: %v", err)
	}
	if err := ws.Unsubscribe(context.Background(), h); err != nil {
		t.Fatalf("wse unsubscribe: %v", err)
	}
	// WSN 1.3 native lifecycle.
	ns := &wsnt.Subscriber{Client: f.lb, Version: wsnt.V1_3}
	h3 := f.subscribeWSN(t, wsnt.V1_3, &wsnt.SubscribeRequest{})
	if _, err := ns.Renew(context.Background(), h3, "PT1H"); err != nil {
		t.Fatalf("wsn renew: %v", err)
	}
	if err := ns.Pause(context.Background(), h3); err != nil {
		t.Fatalf("wsn pause: %v", err)
	}
	if err := ns.Resume(context.Background(), h3); err != nil {
		t.Fatalf("wsn resume: %v", err)
	}
	if err := ns.Unsubscribe(context.Background(), h3); err != nil {
		t.Fatalf("wsn unsubscribe: %v", err)
	}
	// WSN 1.0 WSRF lifecycle.
	ns0 := &wsnt.Subscriber{Client: f.lb, Version: wsnt.V1_0}
	h0 := f.subscribeWSN(t, wsnt.V1_0, &wsnt.SubscribeRequest{})
	doc, err := ns0.Status(context.Background(), h0)
	if err != nil {
		t.Fatalf("wsn 1.0 status: %v", err)
	}
	if doc.ChildText(xmldom.N(wsnt.NS1_0, "Status")) != "Active" {
		t.Error("1.0 status doc wrong")
	}
	if _, err := ns0.Renew(context.Background(), h0, "2006-02-01T06:00:00Z"); err != nil {
		t.Fatalf("wsn 1.0 renew-via-wsrf: %v", err)
	}
	if err := ns0.Unsubscribe(context.Background(), h0); err != nil {
		t.Fatalf("wsn 1.0 destroy-via-wsrf: %v", err)
	}
	if f.broker.SubscriptionCount() != 0 {
		t.Errorf("subscriptions left: %d", f.broker.SubscriptionCount())
	}
}

func TestVersionRulesEnforcedAtBroker(t *testing.T) {
	f := newFixture(t)
	// WSN 1.0 + duration expiry faults.
	s0 := &wsnt.Subscriber{Client: f.lb, Version: wsnt.V1_0}
	_, err := s0.Subscribe(context.Background(), "svc://wsm", &wsnt.SubscribeRequest{
		ConsumerReference:      wsa.NewEPR(wsa.V200303, "svc://wsn-consumer"),
		TopicExpression:        "tns:jobs",
		TopicDialect:           topics.DialectSimple,
		TopicNS:                map[string]string{"tns": "urn:grid"},
		InitialTerminationTime: "PT1H",
	})
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Subcode.Local != "UnacceptableInitialTerminationTimeFault" {
		t.Errorf("1.0 duration err = %v", err)
	}
	// WSN 1.0 without topic faults.
	_, err = s0.Subscribe(context.Background(), "svc://wsm", &wsnt.SubscribeRequest{
		ConsumerReference: wsa.NewEPR(wsa.V200303, "svc://wsn-consumer"),
	})
	if !errors.As(err, &fault) {
		t.Errorf("1.0 topicless err = %v", err)
	}
	// WSN 1.0 native Renew faults (WSRF only).
	h := f.subscribeWSN(t, wsnt.V1_0, &wsnt.SubscribeRequest{})
	env := soap.New(soap.V11)
	hd := wsa.DestinationEPR(h.SubscriptionReference, wsnt.V1_0.ActionRenew(), "")
	hd.Apply(env)
	env.AddBody(xmldom.Elem(wsnt.NS1_0, "Renew"))
	_, err = f.lb.Call(context.Background(), h.SubscriptionReference.Address, env)
	if !errors.As(err, &fault) || fault.Subcode.Local != "UnsupportedOperationFault" {
		t.Errorf("1.0 native renew = %v", err)
	}
	// An unknown delivery mode is rejected.
	s8 := &wse.Subscriber{Client: f.lb, Version: wse.V200408}
	_, err = s8.Subscribe(context.Background(), "svc://wsm", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://wse-sink"),
		Mode:     "urn:bogus:mode",
	})
	if !errors.As(err, &fault) || fault.Subcode.Local != "DeliveryModeRequestedUnavailable" {
		t.Errorf("bogus mode err = %v", err)
	}
}

func TestWSEWrappedModeThroughBroker(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.WrapBatchSize = 3 })
	s := &wse.Subscriber{Client: f.lb, Version: wse.V200408}
	if _, err := s.Subscribe(context.Background(), "svc://wsm", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://wse-sink"),
		Mode:     wse.V200408.DeliveryModeWrap(),
	}); err != nil {
		t.Fatal(err)
	}
	// Cross-spec: WSN publishes batch up for the WSE wrapped subscriber.
	for i := 0; i < 7; i++ {
		f.publishWSN(t, grid, event("w"))
	}
	if got := f.wseSink.Count(); got != 6 {
		t.Fatalf("batched deliveries = %d, want 6 (two full batches)", got)
	}
	for _, n := range f.wseSink.Received() {
		if !n.Wrapped {
			t.Error("delivery not flagged wrapped")
		}
	}
	f.broker.Flush()
	if got := f.wseSink.Count(); got != 7 {
		t.Errorf("after flush = %d, want 7", got)
	}
	if st := f.broker.Stats(); st.Delivered != 7 {
		t.Errorf("delivered stat = %d", st.Delivered)
	}
}

// TestWSEWrappedPartialBatchArrivesUnflushed: on a broker with queued
// delivery (the daemon's mode) a wrapped-mode subscriber receives a batch
// shorter than WrapBatchSize without anyone calling Flush — the queued
// drain hands over whatever is backlogged instead of parking it until the
// tenth message.
func TestWSEWrappedPartialBatchArrivesUnflushed(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.SyncDelivery = false })
	defer f.broker.Shutdown()
	arrived := make(chan wse.Notification, 8)
	f.wseSink.OnNotify = func(n wse.Notification) { arrived <- n }
	s := &wse.Subscriber{Client: f.lb, Version: wse.V200408}
	if _, err := s.Subscribe(context.Background(), "svc://wsm", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://wse-sink"),
		Mode:     wse.V200408.DeliveryModeWrap(),
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.publishWSN(t, grid, event("w"))
	}
	for i := 0; i < 3; i++ {
		select {
		case n := <-arrived:
			if !n.Wrapped {
				t.Error("delivery not flagged wrapped")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("notification %d of 3 never arrived (partial wrapped batch parked)", i+1)
		}
	}
}

func TestContentFilterMediation(t *testing.T) {
	// A WSE subscriber's XPath filter applies to WSN-published messages.
	f := newFixture(t)
	f.subscribeWSE(t, wse.V200408, &wse.SubscribeRequest{
		FilterExpr: "//g:val = 'keep'",
		FilterNS:   map[string]string{"g": "urn:grid"},
	})
	f.publishWSN(t, grid, event("keep"))
	f.publishWSN(t, grid, event("drop"))
	if f.wseSink.Count() != 1 {
		t.Fatalf("filtered mediation delivered %d", f.wseSink.Count())
	}
}

func TestTopicFilterMediation(t *testing.T) {
	// A WSN topic subscription filters WSE-published raw messages whose
	// topic arrives in the extension header.
	f := newFixture(t)
	f.subscribeWSN(t, wsnt.V1_3, &wsnt.SubscribeRequest{
		TopicExpression: "tns:jobs",
		TopicDialect:    topics.DialectSimple,
		TopicNS:         map[string]string{"tns": "urn:grid"},
	})
	f.publishWSE(t, grid, event("yes"))
	f.publishWSE(t, topics.NewPath("urn:grid", "weather"), event("no"))
	f.publishWSE(t, topics.Path{}, event("topicless"))
	if f.wsnSink.Count() != 1 {
		t.Fatalf("topic mediation delivered %d", f.wsnSink.Count())
	}
}

func TestWSEPullThroughBroker(t *testing.T) {
	f := newFixture(t)
	s := &wse.Subscriber{Client: f.lb, Version: wse.V200408}
	h, err := s.Subscribe(context.Background(), "svc://wsm", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://wse-sink"),
		Mode:     wse.V200408.DeliveryModePull(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.publishWSN(t, grid, event("a")) // cross-spec into a pull queue
	f.publishWSE(t, grid, event("b"))
	if f.wseSink.Count() != 0 {
		t.Error("pull subscription pushed")
	}
	msgs, err := s.Pull(context.Background(), h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("pulled %d", len(msgs))
	}
}

func TestSubscriptionEndMediation(t *testing.T) {
	f := newFixture(t)
	// WSE subscriber with EndTo gets SubscriptionEnd on shutdown.
	f.subscribeWSE(t, wse.V200408, &wse.SubscribeRequest{
		EndTo: wsa.NewEPR(wsa.V200408, "svc://wse-sink"),
	})
	// WSN 1.0 consumer gets a WSRF TerminationNotification.
	f.subscribeWSN(t, wsnt.V1_0, &wsnt.SubscribeRequest{})
	// WSN 1.3 consumer gets nothing.
	f.subscribeWSN(t, wsnt.V1_3, &wsnt.SubscribeRequest{
		ConsumerReference: wsa.NewEPR(wsa.V200508, "svc://wsn13-consumer"),
	})
	c13 := &wsnt.Consumer{}
	f.lb.Register("svc://wsn13-consumer", c13)

	f.broker.Shutdown()
	if len(f.wseSink.Ends()) != 1 {
		t.Errorf("wse ends = %d", len(f.wseSink.Ends()))
	}
	if len(f.wsnSink.Terminations()) != 1 {
		t.Errorf("wsn 1.0 terminations = %d", len(f.wsnSink.Terminations()))
	}
	if len(c13.Terminations()) != 0 || c13.Count() != 0 {
		t.Error("wsn 1.3 should end silently")
	}
}

func TestGetCurrentMessageAtBroker(t *testing.T) {
	f := newFixture(t)
	f.publishWSE(t, grid, event("latest"))
	s := &wsnt.Subscriber{Client: f.lb, Version: wsnt.V1_3}
	got, err := s.GetCurrentMessage(context.Background(), "svc://wsm",
		"tns:jobs", topics.DialectConcrete, map[string]string{"tns": "urn:grid"})
	if err != nil {
		t.Fatal(err)
	}
	if got.ChildText(xmldom.N("urn:grid", "val")) != "latest" {
		t.Errorf("current = %s", xmldom.Marshal(got))
	}
}

func TestExpiryScavengeAndFailureDrop(t *testing.T) {
	f := newFixture(t)
	f.subscribeWSE(t, wse.V200408, &wse.SubscribeRequest{Expires: "PT5M"})
	f.clock.advance(6 * time.Minute)
	if n := f.broker.Scavenge(); n != 1 {
		t.Fatalf("scavenged %d", n)
	}
	// Dead consumer dropped after FailureLimit.
	s := &wse.Subscriber{Client: f.lb, Version: wse.V200408}
	if _, err := s.Subscribe(context.Background(), "svc://wsm", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://dead"),
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.publishWSE(t, grid, event("x"))
	}
	if f.broker.SubscriptionCount() != 0 {
		t.Errorf("dead subscriber survived: %d", f.broker.SubscriptionCount())
	}
	if f.broker.Stats().Failures < 3 {
		t.Errorf("failures = %d", f.broker.Stats().Failures)
	}
}

func TestAsyncDeliveryPipeline(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.SyncDelivery = false })
	f.subscribeWSE(t, wse.V200408, &wse.SubscribeRequest{})
	f.subscribeWSN(t, wsnt.V1_3, &wsnt.SubscribeRequest{})
	for i := 0; i < 50; i++ {
		f.publishWSE(t, grid, event("n"))
	}
	f.broker.Flush()
	if f.wseSink.Count() != 50 || f.wsnSink.Count() != 50 {
		t.Errorf("async delivery: wse=%d wsn=%d", f.wseSink.Count(), f.wsnSink.Count())
	}
	st := f.broker.Stats()
	if st.Delivered != 100 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestManagementAtFrontDoorWhenShared(t *testing.T) {
	// Without a separate manager address, the front door manages too.
	lb := transport.NewLoopback()
	b, err := New(Config{Address: "svc://one", Client: lb, SyncDelivery: true})
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("svc://one", b.FrontHandler())
	lb.Register("svc://sink", &wse.Sink{})
	s := &wse.Subscriber{Client: lb, Version: wse.V200408}
	h, err := s.Subscribe(context.Background(), "svc://one", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Manager.Address != "svc://one" {
		t.Errorf("manager = %q", h.Manager.Address)
	}
	if err := s.Unsubscribe(context.Background(), h); err != nil {
		t.Fatalf("unsubscribe at front door: %v", err)
	}
	// With a separate manager, the front door refuses management.
	f := newFixture(t)
	h2 := f.subscribeWSE(t, wse.V200408, &wse.SubscribeRequest{})
	h2.Manager = wsa.NewEPR(wsa.V200408, "svc://wsm") // wrong on purpose
	s2 := &wse.Subscriber{Client: f.lb, Version: wse.V200408}
	if err := s2.Unsubscribe(context.Background(), h2); err == nil {
		t.Error("front door accepted management despite separate manager")
	}
}

func TestWSE01SubscriberThroughBroker(t *testing.T) {
	f := newFixture(t)
	s := &wse.Subscriber{Client: f.lb, Version: wse.V200401}
	h, err := s.Subscribe(context.Background(), "svc://wsm", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200303, "svc://wse-sink"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Manager defaults to the subscribe target; point it at the broker's
	// manager endpoint, where 1/2004 body-ID management is accepted.
	h.Manager = wsa.NewEPR(wsa.V200303, "svc://wsm-subs")
	f.publishWSN(t, grid, event("old-spec"))
	if f.wseSink.Count() != 1 {
		t.Fatalf("1/2004 sink got %d", f.wseSink.Count())
	}
	if _, err := s.Renew(context.Background(), h, "PT30M"); err != nil {
		t.Fatalf("1/2004 renew: %v", err)
	}
	if err := s.Unsubscribe(context.Background(), h); err != nil {
		t.Fatalf("1/2004 unsubscribe: %v", err)
	}
}
